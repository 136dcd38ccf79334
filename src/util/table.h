// Console table formatting for benchmark output. Benches print the same
// rows/series the paper's tables and figures report; this gives them an
// aligned, greppable textual form.

#ifndef GROUTING_SRC_UTIL_TABLE_H_
#define GROUTING_SRC_UTIL_TABLE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace grouting {

// A simple column-aligned text table:
//   Table t({"scheme", "throughput (q/s)"});
//   t.AddRow({"embed", Table::Num(171.2)});
//   std::cout << t.ToString();
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  void AddRow(std::vector<std::string> cells);

  // Formats a double with the given precision, trimming trailing zeros.
  static std::string Num(double v, int precision = 2);
  static std::string Int(int64_t v);
  // Human-readable byte size, e.g. "2.8 GB".
  static std::string Bytes(uint64_t bytes);

  std::string ToString() const;

  size_t row_count() const { return rows_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

// Parses byte-size strings such as "16MB", "4GB", "512" (bytes): digits,
// then an optional unit B, K(B), M(B), G(B) or T(B), any case. Returns
// nullopt on malformed input (no digits, an unknown unit, or a value that
// does not fit 64 bits).
std::optional<uint64_t> ParseByteSize(const std::string& text);

}  // namespace grouting

#endif  // GROUTING_SRC_UTIL_TABLE_H_
