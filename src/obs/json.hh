/**
 * @file
 * The JSON string escaper and number formatter every obs exporter
 * (metrics, trace, time series, request log) writes through, so their
 * bytes agree.
 */

#ifndef RECPERF_OBS_JSON_HH
#define RECPERF_OBS_JSON_HH

#include <string>

namespace recperf {
namespace obs {

/** @p s escaped for a JSON string body: quote, backslash, \n, \t and
 *  \r by name, other control characters as \u00XX. */
std::string jsonEscape(const std::string &s);

/** @p v as a JSON number, printf "%.9g". */
std::string jsonNumber(double v);

} // namespace obs
} // namespace recperf

#endif // RECPERF_OBS_JSON_HH
