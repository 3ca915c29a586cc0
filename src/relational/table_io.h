#ifndef PROBKB_RELATIONAL_TABLE_IO_H_
#define PROBKB_RELATIONAL_TABLE_IO_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

#include "relational/table.h"
#include "util/result.h"

namespace probkb {

/// \brief Writes a table as tab-separated values with a `# name TYPE ...`
/// header line; NULL is written as `\N` (PostgreSQL COPY convention).
///
/// This is the interchange format between grounding and external inference
/// engines: the paper pipes the factor table TPhi to GraphLab in exactly
/// this spirit (Figure 1's architecture).
Status WriteTableTsv(const Table& table, std::ostream* out);
Status WriteTableTsvFile(const Table& table, const std::string& path);

/// \brief Reads a TSV written by WriteTableTsv; validates the header
/// against `schema`.
Result<TablePtr> ReadTableTsv(const Schema& schema, std::istream* in);
Result<TablePtr> ReadTableTsvFile(const Schema& schema,
                                  const std::string& path);

/// \brief Lossless columnar table encoding of the spill layer's page
/// files: rows, width, then per column a type tag, the raw 8-byte cell
/// words straight from the typed vectors (doubles round-trip bit for bit,
/// NULL cells keep their zero sentinel), and an optional null bitmap.
void EncodeTableColumnar(const Table& table, std::string* out);

/// \brief Inverse of EncodeTableColumnar; validates the encoded shape
/// against `schema` and rebuilds the table byte-identically (columnar
/// inserts via Table::AppendColumnarRows, no per-cell materialization).
Result<TablePtr> DecodeTableColumnar(const Schema& schema,
                                     std::string_view bytes);

/// \brief Order-sensitive checksum over `len` bytes: value_hash::Mix of
/// each 8-byte word (tail zero-padded) folded with CombineRowHash, plus
/// the length. Spill pages carry it as their checksum.
uint64_t ColumnarChecksum(const void* data, size_t len);

}  // namespace probkb

#endif  // PROBKB_RELATIONAL_TABLE_IO_H_
