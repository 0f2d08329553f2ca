#include "util/csv.h"

#include <sstream>

#include "util/failpoint.h"
#include "util/file_io.h"

namespace mysawh {

namespace {

/// Splits one logical CSV record (already free of embedded record breaks in
/// this library's usage) into fields, honouring quotes.
Result<std::vector<std::string>> SplitRecord(const std::string& line) {
  std::vector<std::string> fields;
  std::string field;
  bool in_quotes = false;
  for (size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          field.push_back('"');
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        field.push_back(c);
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == ',') {
      fields.push_back(std::move(field));
      field.clear();
    } else {
      field.push_back(c);
    }
  }
  if (in_quotes) {
    return Status::InvalidArgument("unterminated quote in CSV record");
  }
  fields.push_back(std::move(field));
  return fields;
}

std::string EscapeField(const std::string& field) {
  if (field.find_first_of(",\"\n") == std::string::npos) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += "\"\"";
    else out.push_back(c);
  }
  out.push_back('"');
  return out;
}

}  // namespace

Result<CsvDocument> ParseCsv(const std::string& content) {
  CsvDocument doc;
  std::istringstream in(content);
  std::string line;
  bool first = true;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() && in.eof()) break;
    MYSAWH_ASSIGN_OR_RETURN(auto fields, SplitRecord(line));
    if (first) {
      doc.header = std::move(fields);
      first = false;
    } else {
      if (fields.size() != doc.header.size()) {
        return Status::InvalidArgument(
            "CSV row width " + std::to_string(fields.size()) +
            " differs from header width " + std::to_string(doc.header.size()));
      }
      doc.rows.push_back(std::move(fields));
    }
  }
  if (first) return Status::InvalidArgument("CSV content has no header row");
  return doc;
}

Result<CsvDocument> ReadCsv(const std::string& path, bool require_checksum) {
  MYSAWH_FAILPOINT("csv_read/open");
  MYSAWH_ASSIGN_OR_RETURN(std::string content, ReadFileToString(path));
  if (LooksChecksummed(content)) {
    MYSAWH_ASSIGN_OR_RETURN(content, UnwrapChecksummed(content));
  } else if (require_checksum) {
    return Status::DataLoss("expected a checksummed CSV artifact: " + path);
  }
  return ParseCsv(content);
}

std::string CsvToString(const CsvDocument& doc) {
  std::ostringstream os;
  for (size_t i = 0; i < doc.header.size(); ++i) {
    if (i > 0) os << ',';
    os << EscapeField(doc.header[i]);
  }
  os << '\n';
  for (const auto& row : doc.rows) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) os << ',';
      os << EscapeField(row[i]);
    }
    os << '\n';
  }
  return os.str();
}

Status WriteCsv(const std::string& path, const CsvDocument& doc,
                bool checksummed) {
  for (const auto& row : doc.rows) {
    if (row.size() != doc.header.size()) {
      return Status::InvalidArgument("CSV row width differs from header");
    }
  }
  const std::string text = CsvToString(doc);
  return checksummed ? WriteFileChecksummed(path, text, "csv_write")
                     : WriteFileAtomic(path, text, "csv_write");
}

}  // namespace mysawh
