#include "data/table.h"

#include <cmath>
#include <cstdio>
#include <limits>

#include "util/csv.h"
#include "util/string_util.h"

namespace mysawh {

namespace {

/// Round-trip formatting for CSV cells: %.17g is exact for doubles but we
/// first try shorter representations for readability.
std::string FormatCell(double value) {
  if (std::isnan(value)) return "";
  char buf[64];
  for (int precision : {6, 9, 12, 17}) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
    double parsed = 0.0;
    std::sscanf(buf, "%lf", &parsed);
    if (parsed == value) break;
  }
  return buf;
}

}  // namespace

Status Table::CheckLength(size_t n) const {
  if (!columns_.empty() && static_cast<int64_t>(n) != num_rows_) {
    return Status::InvalidArgument(
        "column length " + std::to_string(n) + " does not match table rows " +
        std::to_string(num_rows_));
  }
  return Status::Ok();
}

Status Table::AddNumericColumn(std::string name, std::vector<double> values) {
  if (HasColumn(name)) {
    return Status::AlreadyExists("duplicate column: " + name);
  }
  MYSAWH_RETURN_NOT_OK(CheckLength(values.size()));
  num_rows_ = static_cast<int64_t>(values.size());
  columns_.push_back(Column{std::move(name), std::move(values)});
  return Status::Ok();
}

Status Table::AddStringColumn(std::string name,
                              std::vector<std::string> values) {
  if (HasColumn(name)) {
    return Status::AlreadyExists("duplicate column: " + name);
  }
  MYSAWH_RETURN_NOT_OK(CheckLength(values.size()));
  num_rows_ = static_cast<int64_t>(values.size());
  columns_.push_back(Column{std::move(name), std::move(values)});
  return Status::Ok();
}

std::vector<std::string> Table::ColumnNames() const {
  std::vector<std::string> names;
  names.reserve(columns_.size());
  for (const auto& c : columns_) names.push_back(c.name);
  return names;
}

bool Table::HasColumn(const std::string& name) const {
  for (const auto& c : columns_) {
    if (c.name == name) return true;
  }
  return false;
}

Result<const Column*> Table::GetColumn(const std::string& name) const {
  for (const auto& c : columns_) {
    if (c.name == name) return &c;
  }
  return Status::NotFound("column not found: " + name);
}

Result<const std::vector<double>*> Table::GetNumeric(
    const std::string& name) const {
  MYSAWH_ASSIGN_OR_RETURN(const Column* col, GetColumn(name));
  if (!col->is_numeric()) {
    return Status::InvalidArgument("column is not numeric: " + name);
  }
  return &col->numeric();
}

Status Table::ToCsvFile(const std::string& path) const {
  CsvDocument doc;
  doc.header = ColumnNames();
  doc.rows.resize(static_cast<size_t>(num_rows_));
  for (auto& row : doc.rows) row.resize(columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) {
    const Column& col = columns_[c];
    for (int64_t r = 0; r < num_rows_; ++r) {
      const auto ri = static_cast<size_t>(r);
      doc.rows[ri][c] =
          col.is_numeric() ? FormatCell(col.numeric()[ri]) : col.strings()[ri];
    }
  }
  return WriteCsv(path, doc);
}

Result<Table> Table::FromCsvFile(const std::string& path) {
  MYSAWH_ASSIGN_OR_RETURN(CsvDocument doc, ReadCsv(path));
  Table out;
  for (size_t c = 0; c < doc.header.size(); ++c) {
    bool numeric = true;
    for (const auto& row : doc.rows) {
      const std::string cell = Trim(row[c]);
      if (cell.empty() || cell == "nan" || cell == "NaN" || cell == "NA") {
        continue;
      }
      if (!ParseDouble(cell).ok()) {
        numeric = false;
        break;
      }
    }
    if (numeric) {
      std::vector<double> values;
      values.reserve(doc.rows.size());
      for (const auto& row : doc.rows) {
        MYSAWH_ASSIGN_OR_RETURN(double v, ParseDoubleAllowMissing(row[c]));
        values.push_back(v);
      }
      MYSAWH_RETURN_NOT_OK(
          out.AddNumericColumn(doc.header[c], std::move(values)));
    } else {
      std::vector<std::string> values;
      values.reserve(doc.rows.size());
      for (const auto& row : doc.rows) values.push_back(row[c]);
      MYSAWH_RETURN_NOT_OK(
          out.AddStringColumn(doc.header[c], std::move(values)));
    }
  }
  return out;
}

}  // namespace mysawh
