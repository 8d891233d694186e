#include "common/write_file.hh"

#include <cstdio>

#include "common/logging.hh"

namespace smt {

bool
writeTextFile(const std::string &path, const std::string &text)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f) {
        warn("cannot write %s", path.c_str());
        return false;
    }
    const bool wrote =
        std::fwrite(text.data(), 1, text.size(), f) == text.size();
    if (std::fclose(f) != 0 || !wrote) {
        warn("failed writing %s", path.c_str());
        return false;
    }
    return true;
}

} // namespace smt
