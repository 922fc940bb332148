#include "obs/report.h"

#include <cinttypes>
#include <cstdio>

#include "obs/json.h"

namespace dpe::obs {

namespace {

/// Prometheus metric-name charset: [a-zA-Z0-9_:]. We map '.' and '-' (our
/// internal separators) to '_' and drop anything else exotic.
std::string Sanitized(const std::string& name) {
  std::string out;
  out.reserve(name.size() + 4);
  out.append("dpe_");
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

std::string EscapedValue(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    if (c == '\\' || c == '"') {
      out.push_back('\\');
      out.push_back(c);
    } else if (c == '\n') {
      out.append("\\n");
    } else {
      out.push_back(c);
    }
  }
  return out;
}

/// {key="value",...} or "" when empty; `extra` appends one more pair
/// (used for the histogram `le` label).
std::string LabelBlock(const Labels& labels, const std::string& extra_key = "",
                       const std::string& extra_value = "") {
  if (labels.empty() && extra_key.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out.push_back(',');
    first = false;
    out.append(k);
    out.append("=\"");
    out.append(EscapedValue(v));
    out.push_back('"');
  }
  if (!extra_key.empty()) {
    if (!first) out.push_back(',');
    out.append(extra_key);
    out.append("=\"");
    out.append(EscapedValue(extra_value));
    out.push_back('"');
  }
  out.push_back('}');
  return out;
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string Num(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  return buf;
}

std::string LabelsJson(const Labels& labels) {
  std::string out = "{";
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out.push_back(',');
    out.append(JsonQuoted(labels[i].first));
    out.push_back(':');
    out.append(JsonQuoted(labels[i].second));
  }
  out.push_back('}');
  return out;
}

}  // namespace

std::string PrometheusText(const MetricsSnapshot& snapshot) {
  std::string out;
  std::string last_name;  // emit TYPE comments once per metric name
  for (const MetricSample& s : snapshot.samples) {
    const std::string base = Sanitized(s.name);
    switch (s.kind) {
      case MetricKind::kCounter: {
        if (s.name != last_name) {
          out.append("# TYPE ").append(base).append("_total counter\n");
        }
        out.append(base).append("_total").append(LabelBlock(s.labels));
        out.push_back(' ');
        out.append(Num(s.counter_value));
        out.push_back('\n');
        break;
      }
      case MetricKind::kGauge: {
        if (s.name != last_name) {
          out.append("# TYPE ").append(base).append(" gauge\n");
        }
        out.append(base).append(LabelBlock(s.labels));
        out.push_back(' ');
        out.append(Num(s.gauge_value));
        out.push_back('\n');
        break;
      }
      case MetricKind::kHistogram: {
        if (s.name != last_name) {
          out.append("# TYPE ").append(base).append(" histogram\n");
        }
        uint64_t cumulative = 0;
        for (size_t b = 0; b < s.histogram.bounds.size(); ++b) {
          cumulative += s.histogram.counts[b];
          out.append(base).append("_bucket");
          out.append(LabelBlock(s.labels, "le", Num(s.histogram.bounds[b])));
          out.push_back(' ');
          out.append(Num(cumulative));
          out.push_back('\n');
        }
        out.append(base).append("_bucket");
        out.append(LabelBlock(s.labels, "le", "+Inf"));
        out.push_back(' ');
        out.append(Num(s.histogram.count));
        out.push_back('\n');
        out.append(base).append("_sum").append(LabelBlock(s.labels));
        out.push_back(' ');
        out.append(Num(s.histogram.sum));
        out.push_back('\n');
        out.append(base).append("_count").append(LabelBlock(s.labels));
        out.push_back(' ');
        out.append(Num(s.histogram.count));
        out.push_back('\n');
        break;
      }
    }
    last_name = s.name;
  }
  return out;
}

std::string SnapshotJson(const MetricsSnapshot& snapshot) {
  std::string out = "[";
  for (size_t i = 0; i < snapshot.samples.size(); ++i) {
    const MetricSample& s = snapshot.samples[i];
    if (i > 0) out.push_back(',');
    out.append("\n  {\"name\":").append(JsonQuoted(s.name));
    out.append(",\"labels\":").append(LabelsJson(s.labels));
    switch (s.kind) {
      case MetricKind::kCounter:
        out.append(",\"kind\":\"counter\",\"value\":")
            .append(Num(s.counter_value));
        break;
      case MetricKind::kGauge:
        out.append(",\"kind\":\"gauge\",\"value\":").append(Num(s.gauge_value));
        break;
      case MetricKind::kHistogram:
        out.append(",\"kind\":\"histogram\",\"count\":")
            .append(Num(s.histogram.count));
        out.append(",\"sum\":").append(Num(s.histogram.sum));
        out.append(",\"p50\":").append(Num(s.histogram.p50()));
        out.append(",\"p95\":").append(Num(s.histogram.p95()));
        out.append(",\"p99\":").append(Num(s.histogram.p99()));
        break;
    }
    out.push_back('}');
  }
  out.append(snapshot.samples.empty() ? "]" : "\n]");
  return out;
}

std::string StatsReport::ToPrometheusText() const {
  std::string out;
  for (const auto& [k, v] : info) {
    out.append("# info ").append(k).append("=").append(v).push_back('\n');
  }
  if (!stages.empty()) {
    // Named distinctly from the dpe_build_stage_ms histogram (the
    // build.stage_ms metric): one exposition must not declare the same
    // family with two TYPEs.
    out.append("# TYPE dpe_last_build_stage_ms gauge\n");
    for (const StageTiming& st : stages) {
      out.append("dpe_last_build_stage_ms");
      out.append(LabelBlock({}, "stage", st.name));
      out.push_back(' ');
      out.append(Num(st.ms));
      out.push_back('\n');
    }
  }
  out.append(PrometheusText(metrics));
  return out;
}

std::string StatsReport::ToJson() const {
  std::string out = "{\n \"info\": {";
  for (size_t i = 0; i < info.size(); ++i) {
    if (i > 0) out.push_back(',');
    out.append(JsonQuoted(info[i].first));
    out.push_back(':');
    out.append(JsonQuoted(info[i].second));
  }
  out.append("},\n \"stages\": [");
  for (size_t i = 0; i < stages.size(); ++i) {
    if (i > 0) out.push_back(',');
    out.append("{\"name\":").append(JsonQuoted(stages[i].name));
    out.append(",\"ms\":").append(Num(stages[i].ms)).push_back('}');
  }
  out.append("],\n \"metrics\": ").append(SnapshotJson(metrics));
  for (const auto& [key, value] : extra_json) {
    out.append(",\n ").append(JsonQuoted(key)).append(": ").append(value);
  }
  out.append("\n}\n");
  return out;
}

}  // namespace dpe::obs
