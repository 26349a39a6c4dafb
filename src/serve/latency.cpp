#include "serve/latency.hpp"

#include "common/json_writer.hpp"

namespace laacad::serve {

namespace {
constexpr const char* kVerbNames[kNumVerbs] = {
    "knn", "coverage", "load", "stats", "health", "event", "drain", "other"};
}  // namespace

Verb verb_from_op(std::string_view op) {
  for (int i = 0; i < kNumVerbs - 1; ++i)
    if (op == kVerbNames[i]) return static_cast<Verb>(i);
  return Verb::kOther;
}

void RequestLatency::record(Verb v, const PhaseDurations& d) {
  PerVerb& pv = verbs_[static_cast<int>(v)];
  pv.total.record(d.total_ns);
  pv.queue.record(d.queue_ns);
  pv.query.record(d.query_ns);
  pv.serialize.record(d.serialize_ns);
}

std::uint64_t RequestLatency::count(Verb v) const {
  return verbs_[static_cast<int>(v)].total.count();
}

RequestLatency::VerbSnapshot RequestLatency::snapshot(Verb v) const {
  const PerVerb& pv = verbs_[static_cast<int>(v)];
  return VerbSnapshot{pv.total.snapshot(), pv.queue.snapshot(),
                      pv.query.snapshot(), pv.serialize.snapshot()};
}

void RequestLatency::write_stats_json(JsonWriter& w) const {
  w.begin_object();
  for (int i = 0; i < kNumVerbs; ++i) {
    const Verb v = static_cast<Verb>(i);
    if (count(v) == 0) continue;
    const VerbSnapshot snap = snapshot(v);
    w.key(kVerbNames[i]).begin_object();
    w.key("total");
    snap.total.write_percentiles_json(w);
    w.key("queue");
    snap.queue.write_percentiles_json(w);
    w.key("query");
    snap.query.write_percentiles_json(w);
    w.key("serialize");
    snap.serialize.write_percentiles_json(w);
    w.end_object();
  }
  w.end_object();
}

}  // namespace laacad::serve
