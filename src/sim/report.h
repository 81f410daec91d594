// Plain-text table/CSV reporting used by the benchmark harness to print
// rows matching the paper's tables and figure series.
#pragma once

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/types.h"

namespace tsim::sim {

namespace detail {
inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned char>(ch));
      out += buf;
    } else {
      out += ch;
    }
  }
  return out;
}
}  // namespace detail

/// The one JSON-row renderer shared by every trajectory writer (Table::
/// write_json, the bench --json outputs, the DSE driver, the farm's shard
/// pipe): a JSON array with one string-keyed object per row, values exactly
/// as rendered in the table.
inline std::string render_json_rows(const std::vector<std::string>& header,
                                    const std::vector<std::vector<std::string>>& rows) {
  std::string text = "[\n";
  for (size_t r = 0; r < rows.size(); ++r) {
    text += "  {";
    for (size_t c = 0; c < rows[r].size() && c < header.size(); ++c) {
      if (c != 0) text += ", ";
      text += '"' + detail::json_escape(header[c]) + "\": \"" +
              detail::json_escape(rows[r][c]) + '"';
    }
    text += r + 1 < rows.size() ? "},\n" : "}\n";
  }
  text += "]\n";
  return text;
}

inline void write_json_rows(std::FILE* f, const std::vector<std::string>& header,
                            const std::vector<std::vector<std::string>>& rows) {
  const std::string text = render_json_rows(header, rows);
  std::fwrite(text.data(), 1, text.size(), f);
}

/// Returns false (with a warning on stderr) when the file cannot be opened.
inline bool write_json_rows(const std::string& path,
                            const std::vector<std::string>& header,
                            const std::vector<std::vector<std::string>>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return false;
  }
  write_json_rows(f, header, rows);
  std::fclose(f);
  return true;
}

/// Parses the exact format write_json_rows emits (an array of flat objects
/// with string keys and string values) back into per-row key/value lists.
/// This is the farm's shard-gather wire format: worker processes stream
/// their per-cell rows through a pipe as JSON and the parent reassembles
/// them (see mac/farm.cpp). Not a general JSON parser: nested values are
/// rejected (returns false), escapes are limited to what json_escape emits.
inline bool parse_json_rows(const std::string& text,
                            std::vector<std::vector<std::pair<std::string, std::string>>>& rows) {
  rows.clear();
  size_t i = 0;
  const auto skip_ws = [&] {
    while (i < text.size() && (text[i] == ' ' || text[i] == '\n' ||
                               text[i] == '\r' || text[i] == '\t'))
      ++i;
  };
  // Reads a quoted string (cursor on the opening quote) into `out`.
  const auto read_string = [&](std::string& out) -> bool {
    if (i >= text.size() || text[i] != '"') return false;
    ++i;
    out.clear();
    while (i < text.size() && text[i] != '"') {
      if (text[i] == '\\') {
        if (i + 1 >= text.size()) return false;
        const char esc = text[i + 1];
        if (esc == '"' || esc == '\\') {
          out += esc;
          i += 2;
        } else if (esc == 'u' && i + 5 < text.size()) {
          out += static_cast<char>(std::strtoul(text.substr(i + 2, 4).c_str(),
                                                nullptr, 16));
          i += 6;
        } else {
          return false;
        }
      } else {
        out += text[i++];
      }
    }
    if (i >= text.size()) return false;
    ++i;  // closing quote
    return true;
  };
  skip_ws();
  if (i >= text.size() || text[i] != '[') return false;
  ++i;
  skip_ws();
  if (i < text.size() && text[i] == ']') return true;  // empty array
  for (;;) {
    skip_ws();
    if (i >= text.size() || text[i] != '{') return false;
    ++i;
    std::vector<std::pair<std::string, std::string>> row;
    skip_ws();
    while (i < text.size() && text[i] != '}') {
      std::string key, value;
      if (!read_string(key)) return false;
      skip_ws();
      if (i >= text.size() || text[i] != ':') return false;
      ++i;
      skip_ws();
      if (!read_string(value)) return false;
      row.emplace_back(std::move(key), std::move(value));
      skip_ws();
      if (i < text.size() && text[i] == ',') {
        ++i;
        skip_ws();
      }
    }
    if (i >= text.size()) return false;
    ++i;  // '}'
    rows.push_back(std::move(row));
    skip_ws();
    if (i < text.size() && text[i] == ',') {
      ++i;
      continue;
    }
    break;
  }
  skip_ws();
  return i < text.size() && text[i] == ']';
}

/// Accumulates rows and prints an aligned plain-text table.
class Table {
 public:
  explicit Table(std::vector<std::string> header) : header_(std::move(header)) {}

  void add_row(std::vector<std::string> row) { rows_.push_back(std::move(row)); }

  void print(std::FILE* out = stdout) const {
    std::vector<size_t> width(header_.size());
    for (size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
    for (const auto& row : rows_)
      for (size_t c = 0; c < row.size() && c < width.size(); ++c)
        width[c] = std::max(width[c], row[c].size());
    print_row(out, header_, width);
    std::string sep;
    for (size_t c = 0; c < width.size(); ++c) {
      sep += std::string(width[c] + 2, '-');
      if (c + 1 < width.size()) sep += "+";
    }
    std::fprintf(out, "%s\n", sep.c_str());
    for (const auto& row : rows_) print_row(out, row, width);
  }

  void write_csv(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
      return;
    }
    write_csv_row(f, header_);
    for (const auto& row : rows_) write_csv_row(f, row);
    std::fclose(f);
  }

  /// Machine-readable form via the shared write_json_rows emitter. Returns
  /// false when the file cannot be written.
  bool write_json(const std::string& path) const {
    return write_json_rows(path, header_, rows_);
  }

  const std::vector<std::string>& header() const { return header_; }
  const std::vector<std::vector<std::string>>& rows() const { return rows_; }

 private:
  static void print_row(std::FILE* out, const std::vector<std::string>& row,
                        const std::vector<size_t>& width) {
    for (size_t c = 0; c < row.size() && c < width.size(); ++c) {
      std::fprintf(out, " %-*s ", static_cast<int>(width[c]), row[c].c_str());
      if (c + 1 < width.size()) std::fprintf(out, "|");
    }
    std::fprintf(out, "\n");
  }
  static void write_csv_row(std::FILE* f, const std::vector<std::string>& row) {
    for (size_t c = 0; c < row.size(); ++c)
      std::fprintf(f, "%s%s", row[c].c_str(), c + 1 < row.size() ? "," : "\n");
  }

  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// printf-style std::string helper for report rows.
inline std::string strf(const char* fmt, ...) {
  char buf[160];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  return buf;
}

}  // namespace tsim::sim
