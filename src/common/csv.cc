#include "common/csv.h"

#include <fstream>
#include <sstream>

#include "common/string_util.h"

namespace fuser {

namespace {

/// Parses `text` into `*row`. Returns true when the record is complete and
/// false when the text ends inside an open quote (the record continues on
/// the next physical line). `*row` is only valid when the result is true.
bool ParseCsvInto(const std::string& text, char sep, CsvRow* row) {
  row->clear();
  std::string field;
  bool in_quotes = false;
  size_t i = 0;
  while (i < text.size()) {
    char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          field.push_back('"');
          i += 2;
          continue;
        }
        in_quotes = false;
        ++i;
        continue;
      }
      field.push_back(c);
      ++i;
      continue;
    }
    if (c == '"' && field.empty()) {
      in_quotes = true;
      ++i;
      continue;
    }
    if (c == sep) {
      row->push_back(std::move(field));
      field.clear();
      ++i;
      continue;
    }
    field.push_back(c);
    ++i;
  }
  if (in_quotes) return false;
  row->push_back(std::move(field));
  return true;
}

/// Advances the parser's quote state over `text` without materializing
/// fields, mirroring ParseCsvInto exactly: a quote opens only at the start
/// of a field, "" escapes inside quotes. Lets ReadCsvFile test record
/// completeness in O(line) per physical line instead of re-parsing the
/// accumulated record (O(record^2) for fields with many newlines).
void ScanQuoteState(const std::string& text, char sep, bool* in_quotes,
                    bool* field_empty) {
  size_t i = 0;
  while (i < text.size()) {
    char c = text[i];
    if (*in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          *field_empty = false;
          i += 2;
          continue;
        }
        *in_quotes = false;
        ++i;
        continue;
      }
      *field_empty = false;
      ++i;
      continue;
    }
    if (c == '"' && *field_empty) {
      *in_quotes = true;
      ++i;
      continue;
    }
    if (c == sep) {
      *field_empty = true;
      ++i;
      continue;
    }
    *field_empty = false;
    ++i;
  }
}

}  // namespace

std::string FormatCsvLine(const CsvRow& row, char sep) {
  std::string out;
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out.push_back(sep);
    const std::string& field = row[i];
    // Quote separators, quotes, and line breaks (CR would otherwise be
    // mistaken for a CRLF terminator on read); also quote a leading '#' on
    // the first field so the written line is not mistaken for a comment on
    // reload.
    bool needs_quotes = field.find(sep) != std::string::npos ||
                        field.find('"') != std::string::npos ||
                        field.find('\n') != std::string::npos ||
                        field.find('\r') != std::string::npos ||
                        (i == 0 && !field.empty() && field[0] == '#');
    if (!needs_quotes) {
      out += field;
      continue;
    }
    out.push_back('"');
    for (char c : field) {
      if (c == '"') out.push_back('"');
      out.push_back(c);
    }
    out.push_back('"');
  }
  return out;
}

StatusOr<std::vector<CsvRow>> ReadCsvFile(const std::string& path, char sep) {
  std::ifstream in(path);
  if (!in) {
    return Status::IoError("cannot open file for reading: " + path);
  }
  std::vector<CsvRow> rows;
  std::string line;
  // A quoted field may legally contain '\n' (FormatCsvLine emits it), so a
  // logical record can span physical lines: keep accumulating while the
  // record ends inside an open quote. Blank lines and '#' comments are
  // skipped only *between* records, never inside one. A trailing '\r' is a
  // CRLF line terminator only where the record actually ends; inside an
  // open quote it is field content and is preserved.
  std::string record;
  bool in_record = false;
  bool in_quotes = false;
  bool field_empty = true;
  CsvRow row;
  while (std::getline(in, line)) {
    const bool had_cr = !line.empty() && line.back() == '\r';
    if (had_cr) line.pop_back();
    if (!in_record) {
      if (line.empty() || line[0] == '#') continue;
      in_record = true;
      in_quotes = false;
      field_empty = true;
      record.clear();
    } else {
      // The previous physical line ended inside the open quote, so its
      // line break is field content.
      record.push_back('\n');
    }
    ScanQuoteState(line, sep, &in_quotes, &field_empty);
    record += line;
    if (in_quotes) {
      if (had_cr) {
        record.push_back('\r');
        field_empty = false;
      }
      continue;  // quote still open: the record spans the next line
    }
    if (!ParseCsvInto(record, sep, &row)) {
      return Status::InvalidArgument("unterminated quote in CSV record: " +
                                     record);
    }
    rows.push_back(std::move(row));
    row.clear();
    in_record = false;
  }
  if (in_record) {
    return Status::InvalidArgument("unterminated quote at end of file: " +
                                   path);
  }
  return rows;
}

Status WriteCsvFile(const std::string& path, const std::vector<CsvRow>& rows,
                    char sep) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return Status::IoError("cannot open file for writing: " + path);
  }
  for (const CsvRow& row : rows) {
    out << FormatCsvLine(row, sep) << '\n';
  }
  if (!out) {
    return Status::IoError("write failure: " + path);
  }
  return Status::OK();
}

}  // namespace fuser
