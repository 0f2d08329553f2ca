#ifndef MYSAWH_UTIL_CSV_H_
#define MYSAWH_UTIL_CSV_H_

#include <string>
#include <vector>

#include "util/status.h"

namespace mysawh {

/// An in-memory CSV document: a header row plus data rows of equal width.
struct CsvDocument {
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;
};

/// Reads a CSV file (comma-separated, first row is the header, RFC-4180
/// quoting with `"` and doubled quotes). Fails when a data row's width
/// differs from the header's.
///
/// Files wrapped in the checksummed `mysawh-artifact v1` envelope (see
/// util/file_io.h) are verified and unwrapped automatically; corruption
/// returns `DataLoss`. With `require_checksum` a plain, un-enveloped file
/// is also rejected — use this when the producer is known to checksum, so
/// that truncating the envelope away cannot smuggle bytes past the CRC.
Result<CsvDocument> ReadCsv(const std::string& path,
                            bool require_checksum = false);

/// Parses CSV from a string; same rules as ReadCsv.
Result<CsvDocument> ParseCsv(const std::string& content);

/// Writes a CSV file atomically (write temp, fsync, rename). With
/// `checksummed`, wraps the bytes in the CRC32 artifact envelope — the
/// file is then no longer plain CSV for external tools, but every bit
/// flip or truncation is detectable on read.
Status WriteCsv(const std::string& path, const CsvDocument& doc,
                bool checksummed = false);

/// Serializes to a CSV string.
std::string CsvToString(const CsvDocument& doc);

}  // namespace mysawh

#endif  // MYSAWH_UTIL_CSV_H_
