#ifndef MYSAWH_DATA_TABLE_H_
#define MYSAWH_DATA_TABLE_H_

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "util/status.h"

namespace mysawh {

/// Column payload: either numeric (missing values are quiet NaN) or string
/// (missing values are empty strings). Ordinal/categorical PRO answers are
/// stored numerically, matching how the paper's pipeline treats them.
using ColumnData = std::variant<std::vector<double>, std::vector<std::string>>;

/// A named column.
struct Column {
  std::string name;
  ColumnData data;

  bool is_numeric() const {
    return std::holds_alternative<std::vector<double>>(data);
  }
  /// Precondition: is_numeric().
  const std::vector<double>& numeric() const {
    return std::get<std::vector<double>>(data);
  }
  /// Precondition: !is_numeric().
  const std::vector<std::string>& strings() const {
    return std::get<std::vector<std::string>>(data);
  }
};

/// An in-memory columnar table with unique column names and equal column
/// lengths — the interchange format between the cohort simulator, the
/// sample-set builders, and CSV files.
class Table {
 public:
  Table() = default;

  /// Appends a numeric column. Fails on duplicate name or length mismatch
  /// with existing columns.
  Status AddNumericColumn(std::string name, std::vector<double> values);
  /// Appends a string column with the same constraints.
  Status AddStringColumn(std::string name, std::vector<std::string> values);

  int64_t num_rows() const { return num_rows_; }
  int64_t num_columns() const { return static_cast<int64_t>(columns_.size()); }

  /// All column names in insertion order.
  std::vector<std::string> ColumnNames() const;

  /// Whether a column exists.
  bool HasColumn(const std::string& name) const;

  /// Column lookup by name.
  Result<const Column*> GetColumn(const std::string& name) const;
  /// Numeric column lookup; fails if missing or non-numeric.
  Result<const std::vector<double>*> GetNumeric(const std::string& name) const;

  /// Column access by position (0 <= i < num_columns()).
  const Column& column(int64_t i) const { return columns_[static_cast<size_t>(i)]; }

  /// Serializes to CSV (numeric cells via shortest round-trip formatting,
  /// NaN as empty string).
  Status ToCsvFile(const std::string& path) const;

  /// Loads a CSV file, inferring each column as numeric when every non-empty
  /// cell parses as a number, otherwise string.
  static Result<Table> FromCsvFile(const std::string& path);

 private:
  Status CheckLength(size_t n) const;

  std::vector<Column> columns_;
  int64_t num_rows_ = 0;
};

}  // namespace mysawh

#endif  // MYSAWH_DATA_TABLE_H_
