// Small string and path helpers used across modules. Paths here are
// logical file-system paths inside a monitored store (always '/'
// separated), not host OS paths.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace fsmon::common {

/// Split on a delimiter; empty fields are preserved.
std::vector<std::string> split(std::string_view s, char delim);

/// Join with a delimiter.
std::string join(const std::vector<std::string>& parts, char delim);

bool starts_with(std::string_view s, std::string_view prefix);
bool ends_with(std::string_view s, std::string_view suffix);

/// Trim ASCII whitespace from both ends.
std::string_view trim(std::string_view s);

/// Normalize a logical path: ensure a single leading '/', collapse
/// duplicate separators, resolve "." and ".." components, drop any
/// trailing '/'. "/" normalizes to "/".
std::string normalize_path(std::string_view path);

/// True when normalize_path(path) == path, decided in one scan without
/// allocating: a leading '/', and no empty, "." or ".." component.
bool is_normalized_path(std::string_view path);

/// Parent of a normalized path ("/a/b" -> "/a", "/a" -> "/", "/" -> "/").
std::string parent_path(std::string_view path);

/// Final component of a normalized path ("/a/b" -> "b", "/" -> "").
std::string base_name(std::string_view path);

/// True when `path` equals `root` or is underneath it. Both must be
/// normalized. is_under("/a/bc", "/a/b") is false.
bool is_under(std::string_view path, std::string_view root);

/// Shell-style glob match supporting '*', '?' and character classes are
/// NOT supported ('[' matches literally). '*' does not match '/'.
bool glob_match(std::string_view pattern, std::string_view text);

/// Format a double with fixed decimals (for table output).
std::string format_fixed(double value, int decimals);

}  // namespace fsmon::common
