/**
 * @file
 * The one whole-file writer behind every sidecar (telemetry time
 * series and traces, host profiles).
 */

#ifndef DCRA_SMT_COMMON_WRITE_FILE_HH
#define DCRA_SMT_COMMON_WRITE_FILE_HH

#include <string>

namespace smt {

/**
 * Replace @p path with @p text. The file is always closed, and any
 * failure warns with the path: on a full disk the buffered text
 * often fails only when fclose flushes it.
 * @return false on any failure.
 */
bool writeTextFile(const std::string &path, const std::string &text);

} // namespace smt

#endif // DCRA_SMT_COMMON_WRITE_FILE_HH
