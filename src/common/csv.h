// Minimal CSV/TSV reading and writing with RFC-4180-style quoting.
//
// Used by dataset I/O and by the benchmark harness to emit machine-readable
// series for the paper's figures.
#ifndef FUSER_COMMON_CSV_H_
#define FUSER_COMMON_CSV_H_

#include <string>
#include <vector>

#include "common/status.h"

namespace fuser {

/// One parsed row (vector of unescaped fields).
using CsvRow = std::vector<std::string>;

/// Escapes and joins a row for writing. Quotes fields containing the
/// separator, quotes, or newlines, and a leading '#' on the first field
/// (so written rows survive ReadCsvFile's comment skipping).
std::string FormatCsvLine(const CsvRow& row, char sep = ',');

/// Reads a whole file of CSV rows. Skips blank lines and '#' comment lines
/// between records; a quoted field may span physical lines (embedded
/// newlines round-trip). Returns InvalidArgument when the file ends inside
/// an open quote.
StatusOr<std::vector<CsvRow>> ReadCsvFile(const std::string& path,
                                          char sep = ',');

/// Writes rows to `path`, overwriting.
Status WriteCsvFile(const std::string& path, const std::vector<CsvRow>& rows,
                    char sep = ',');

}  // namespace fuser

#endif  // FUSER_COMMON_CSV_H_
