// I/O for QKP instances in the CNAM benchmark text format
// (http://cedric.cnam.fr/~soutif/QKP/), so the paper's exact instances can
// be dropped into the harness when available:
//
//   line 1: reference/name
//   line 2: n
//   line 3: n diagonal (linear) profits
//   lines 4..: strict upper triangle of pairwise profits, row r has n-1-r
//              values (row-by-row)
//   blank line
//   next line: 0 (constraint type marker)
//   next line: capacity
//   next line: n weights
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "cop/qkp.hpp"

namespace hycim::cop {

/// Parses one instance from a stream in the CNAM format.  Tolerates the
/// quirks of the published files: leading blank lines, CRLF endings,
/// whitespace-padded name lines, and trailing content after the weights
/// (some archive files carry comments at the end).  Throws
/// std::runtime_error on malformed input.
QkpInstance read_qkp(std::istream& in);

/// Loads an instance from a file path.  Parse errors (truncated files,
/// non-numeric fields; std::runtime_error) and QkpInstance::validate()
/// errors (a weight < 1, a negative capacity; std::invalid_argument)
/// rethrow as their own type with the path appended.
QkpInstance read_qkp_file(const std::string& path);

/// Writes an instance in the CNAM format (inverse of read_qkp).
void write_qkp(std::ostream& out, const QkpInstance& inst);

/// Saves an instance to a file path.
void write_qkp_file(const std::string& path, const QkpInstance& inst);

/// Loads every regular file in `dir` as a CNAM instance, sorted by file
/// name (deterministic suite order).  Files that fail to parse raise, so a
/// directory of published instances either loads whole or fails loudly —
/// benches citing real instances must not silently drop half the suite.
/// Throws std::runtime_error if `dir` is not a directory or contains no
/// instance files (an empty suite is a misconfiguration, not a sweep of
/// zero instances); every error message carries the offending path.
std::vector<QkpInstance> load_qkp_directory(const std::string& dir);

}  // namespace hycim::cop
