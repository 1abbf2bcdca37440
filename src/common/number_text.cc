#include "common/number_text.hh"

#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>

namespace moatsim
{

bool
parseDouble(std::string_view text, double *out)
{
    // strtod would skip leading whitespace and needs a terminated string.
    if (text.empty() || std::isspace(static_cast<unsigned char>(text[0])))
        return false;
    const std::string token(text);
    char *end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size())
        return false;
    *out = v;
    return true;
}

std::string
hexText(uint64_t v, int digits)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%0*" PRIx64, digits, v);
    return buf;
}

} // namespace moatsim
