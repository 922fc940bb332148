// JSON string quoting, the one escaper behind every JSON document the tree
// emits: the Chrome trace export, the stats report, and the engine's
// /healthz and /stats payloads.

#ifndef DPE_OBS_JSON_H_
#define DPE_OBS_JSON_H_

#include <string>
#include <string_view>

namespace dpe::obs {

/// `in` as a JSON string literal, quotes included: '"' and '\' are
/// backslash-escaped, control characters (below 0x20) become \u00XX, and
/// every other byte is copied as is.
std::string JsonQuoted(std::string_view in);

}  // namespace dpe::obs

#endif  // DPE_OBS_JSON_H_
