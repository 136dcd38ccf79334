#include "src/util/table.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <limits>

#include "src/util/check.h"

namespace grouting {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {
  GROUTING_CHECK(!header_.empty());
}

void Table::AddRow(std::vector<std::string> cells) {
  GROUTING_CHECK(cells.size() == header_.size());
  rows_.push_back(std::move(cells));
}

std::string Table::Num(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  std::string s(buf);
  if (s.find('.') != std::string::npos) {
    while (!s.empty() && s.back() == '0') {
      s.pop_back();
    }
    if (!s.empty() && s.back() == '.') {
      s.pop_back();
    }
  }
  return s;
}

std::string Table::Int(int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  return std::string(buf);
}

std::string Table::Bytes(uint64_t bytes) {
  constexpr const char* kUnits[] = {"B", "KB", "MB", "GB", "TB"};
  double v = static_cast<double>(bytes);
  int unit = 0;
  while (v >= 1024.0 && unit < 4) {
    v /= 1024.0;
    ++unit;
  }
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.1f %s", v, kUnits[unit]);
  return std::string(buf);
}

std::string Table::ToString() const {
  std::vector<size_t> widths(header_.size());
  for (size_t c = 0; c < header_.size(); ++c) {
    widths[c] = header_[c].size();
  }
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  auto render_row = [&](const std::vector<std::string>& row) {
    std::string line = "| ";
    for (size_t c = 0; c < row.size(); ++c) {
      line += row[c];
      line.append(widths[c] - row[c].size(), ' ');
      line += " | ";
    }
    line.pop_back();
    line += "\n";
    return line;
  };

  std::string sep = "+";
  for (size_t c = 0; c < widths.size(); ++c) {
    sep.append(widths[c] + 2, '-');
    sep += "+";
  }
  sep += "\n";

  std::string out = sep + render_row(header_) + sep;
  for (const auto& row : rows_) {
    out += render_row(row);
  }
  out += sep;
  return out;
}

std::optional<uint64_t> ParseByteSize(const std::string& text) {
  uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [unit_begin, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc{}) {
    return std::nullopt;  // no leading digits, or more than 64 bits
  }
  std::string unit(unit_begin, end);
  std::transform(unit.begin(), unit.end(), unit.begin(),
                 [](unsigned char c) { return std::toupper(c); });
  int shift = 0;
  if (unit == "KB" || unit == "K") {
    shift = 10;
  } else if (unit == "MB" || unit == "M") {
    shift = 20;
  } else if (unit == "GB" || unit == "G") {
    shift = 30;
  } else if (unit == "TB" || unit == "T") {
    shift = 40;
  } else if (!unit.empty() && unit != "B") {
    return std::nullopt;
  }
  if (value > (std::numeric_limits<uint64_t>::max() >> shift)) {
    return std::nullopt;
  }
  return value << shift;
}

}  // namespace grouting
