#include "src/common/string_util.hpp"

#include <cctype>
#include <cstdio>

namespace fsmon::common {

std::vector<std::string> split(std::string_view s, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == delim) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string join(const std::vector<std::string>& parts, char delim) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i) out.push_back(delim);
    out += parts[i];
  }
  return out;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() && s.substr(s.size() - suffix.size()) == suffix;
}

std::string_view trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::string normalize_path(std::string_view path) {
  std::vector<std::string> stack;
  std::size_t i = 0;
  while (i < path.size()) {
    while (i < path.size() && path[i] == '/') ++i;
    std::size_t j = i;
    while (j < path.size() && path[j] != '/') ++j;
    std::string_view comp = path.substr(i, j - i);
    i = j;
    if (comp.empty() || comp == ".") continue;
    if (comp == "..") {
      if (!stack.empty()) stack.pop_back();
      continue;
    }
    stack.emplace_back(comp);
  }
  if (stack.empty()) return "/";
  std::string out;
  for (const auto& comp : stack) {
    out.push_back('/');
    out += comp;
  }
  return out;
}

bool is_normalized_path(std::string_view path) {
  if (path.empty() || path[0] != '/') return false;
  if (path.size() == 1) return true;
  // Component [start, i) at each separator (and at the end): reject
  // empty ("//", trailing '/'), "." and "..".
  std::size_t start = 1;
  for (std::size_t i = 1; i <= path.size(); ++i) {
    if (i < path.size() && path[i] != '/') continue;
    const std::size_t len = i - start;
    if (len == 0 || (len <= 2 && path[start] == '.' && path[i - 1] == '.')) return false;
    start = i + 1;
  }
  return true;
}

std::string parent_path(std::string_view path) {
  if (path.empty() || path == "/") return "/";
  const auto pos = path.rfind('/');
  if (pos == 0 || pos == std::string_view::npos) return "/";
  return std::string(path.substr(0, pos));
}

std::string base_name(std::string_view path) {
  if (path.empty() || path == "/") return "";
  const auto pos = path.rfind('/');
  if (pos == std::string_view::npos) return std::string(path);
  return std::string(path.substr(pos + 1));
}

bool is_under(std::string_view path, std::string_view root) {
  if (root == "/") return !path.empty() && path[0] == '/';
  if (!starts_with(path, root)) return false;
  return path.size() == root.size() || path[root.size()] == '/';
}

bool glob_match(std::string_view pattern, std::string_view text) {
  // Iterative wildcard matcher with backtracking over the last '*'.
  std::size_t p = 0, t = 0;
  std::size_t star = std::string_view::npos, match = 0;
  while (t < text.size()) {
    if (p < pattern.size() && (pattern[p] == text[t] || (pattern[p] == '?' && text[t] != '/'))) {
      ++p;
      ++t;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      match = t;
    } else if (star != std::string_view::npos && text[match] != '/') {
      p = star + 1;
      t = ++match;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

std::string format_fixed(double value, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
  return buf;
}

}  // namespace fsmon::common
