#include "campaign/scheduler.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <mutex>
#include <ostream>
#include <stdexcept>

#include "campaign/store.hpp"
#include "common/csv.hpp"
#include "common/json_writer.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "obs/trace.hpp"

namespace laacad::campaign {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

MetricAggregate aggregate_metric(const std::vector<double>& finite) {
  MetricAggregate agg;
  const Summary s = summarize(finite);
  agg.n = static_cast<int>(s.count());
  agg.mean = s.mean();  // NaN when empty, by the stats convention
  agg.stddev = agg.n ? s.stddev() : kNaN;
  agg.min = agg.n ? s.min() : kNaN;
  agg.max = agg.n ? s.max() : kNaN;
  agg.p50 = percentile(finite, 50.0);
  agg.p95 = percentile(finite, 95.0);
  agg.ci95 = ci95_half_width(s);
  return agg;
}

std::vector<GroupAggregate> aggregate_groups(
    const CampaignSpec& spec, const std::vector<TrialPoint>& points,
    const std::vector<TrialResult>& trials) {
  std::vector<GroupAggregate> groups;
  const int reps = spec.trials;
  const int n_points = static_cast<int>(points.size()) / std::max(1, reps);
  groups.reserve(static_cast<std::size_t>(n_points));
  for (int p = 0; p < n_points; ++p) {
    GroupAggregate g;
    g.point = p;
    g.values = points[static_cast<std::size_t>(p * reps)].values;
    g.trials = reps;
    g.metrics.reserve(metric_names().size());
    for (std::size_t m = 0; m < metric_names().size(); ++m) {
      std::vector<double> finite;
      finite.reserve(static_cast<std::size_t>(reps));
      for (int r = 0; r < reps; ++r) {
        const double v =
            trials[static_cast<std::size_t>(p * reps + r)].metrics[m];
        if (std::isfinite(v)) finite.push_back(v);
      }
      g.metrics.push_back(aggregate_metric(finite));
    }
    for (int r = 0; r < reps; ++r)
      if (trials[static_cast<std::size_t>(p * reps + r)].ok) ++g.ok;
    groups.push_back(std::move(g));
  }
  return groups;
}

void write_config(JsonWriter& w, const CampaignSpec& spec) {
  const scenario::ScenarioSpec& b = spec.base;
  w.key("config").begin_object();
  w.kv("trials", spec.trials);
  w.kv("seed", spec.seed);
  if (!spec.scenario_file.empty()) w.kv("scenario", spec.scenario_file);
  w.kv("domain", b.domain);
  w.kv("side", b.side);
  w.kv("hole", b.hole);
  w.kv("deploy", b.deploy);
  w.kv("nodes", b.nodes);
  w.kv("k", b.k);
  w.kv("alpha", b.alpha);
  w.kv("epsilon", b.epsilon);
  w.kv("max_rounds", b.max_rounds);
  w.kv("gamma", b.gamma);
  w.kv("backend", b.backend);
  w.kv("max_hops", b.max_hops);
  w.kv("noise", b.noise);
  w.kv("battery", b.battery);
  w.kv("grid_resolution", b.grid_resolution);
  w.end_object();
}

void write_point_values(
    JsonWriter& w,
    const std::vector<std::pair<std::string, std::string>>& values) {
  w.begin_object();
  for (const auto& [key, value] : values) w.kv(key, value);
  w.end_object();
}

}  // namespace

bool CampaignResult::all_ok() const {
  for (std::size_t i = 0; i < trials.size(); ++i) {
    if (!dist::owns(shard, static_cast<int>(i))) continue;
    if (!trials[i].ok) return false;
  }
  return true;
}

namespace {

/// Serializing a sharded result would emit default rows for every trial the
/// shard never ran, silently poisoning the aggregates with fake failures.
void require_full_matrix(const dist::ShardSpec& shard, const char* what) {
  if (shard.sharded())
    throw std::logic_error(
        std::string(what) + " on a shard " + dist::to_string(shard) +
        " result: a sharded run holds a partial trial matrix — merge the "
        "shard manifests (dist::merge_manifests) and serialize that");
}

}  // namespace

void CampaignResult::write_json(std::ostream& out) const {
  require_full_matrix(shard, "write_json");
  JsonWriter w(out);
  w.begin_object();
  w.kv("schema", "laacad.campaign.v1");
  w.kv("campaign", spec.name);
  write_config(w, spec);

  w.key("axes").begin_array();
  for (const Axis& axis : spec.axes) {
    w.begin_object();
    w.kv("key", axis.key);
    w.key("values").begin_array();
    for (const std::string& v : axis.values) w.value(v);
    w.end_array();
    w.end_object();
  }
  w.end_array();

  w.key("trials").begin_array();
  for (std::size_t i = 0; i < trials.size(); ++i) {
    const TrialPoint& pt = points[i];
    const TrialResult& r = trials[i];
    w.begin_object();
    w.kv("trial", pt.trial);
    w.kv("point", pt.point);
    w.kv("rep", pt.rep);
    w.kv("seed", pt.seed);
    if (!pt.values.empty()) {
      w.key("values");
      write_point_values(w, pt.values);
    }
    w.kv("ok", r.ok);
    if (!r.error.empty()) w.kv("error", r.error);
    w.key("metrics").begin_object();
    for (std::size_t m = 0; m < metric_names().size(); ++m)
      w.kv(metric_names()[m], r.metrics[m]);
    w.end_object();
    w.end_object();
  }
  w.end_array();

  w.key("groups").begin_array();
  for (const GroupAggregate& g : groups) {
    w.begin_object();
    w.kv("point", g.point);
    if (!g.values.empty()) {
      w.key("values");
      write_point_values(w, g.values);
    }
    w.kv("trials", g.trials);
    w.kv("ok", g.ok);
    w.key("metrics").begin_object();
    for (std::size_t m = 0; m < metric_names().size(); ++m) {
      const MetricAggregate& agg = g.metrics[m];
      w.key(metric_names()[m]).begin_object();
      w.kv("n", agg.n);
      w.kv("mean", agg.mean);
      w.kv("stddev", agg.stddev);
      w.kv("min", agg.min);
      w.kv("max", agg.max);
      w.kv("p50", agg.p50);
      w.kv("p95", agg.p95);
      w.kv("ci95", agg.ci95);
      w.end_object();
    }
    w.end_object();
    w.end_object();
  }
  w.end_array();

  int n_ok = 0, n_aborted = 0;
  for (const TrialResult& t : trials) {
    if (t.ok) ++n_ok;
    const double aborted = t.metrics[metric_index("aborted")];
    if (aborted == 1.0) ++n_aborted;
  }
  w.key("summary").begin_object();
  w.kv("trials", static_cast<std::int64_t>(trials.size()));
  w.kv("points", static_cast<std::int64_t>(groups.size()));
  w.kv("ok", n_ok);
  w.kv("aborted", n_aborted);
  w.kv("all_ok", all_ok());
  w.end_object();

  w.end_object();
  out << '\n';
}

void CampaignResult::write_csv(std::ostream& out) const {
  require_full_matrix(shard, "write_csv");
  const auto cell = [](const std::string& s) { return CsvWriter::escape(s); };
  out << "trial,point,rep,seed";
  for (const Axis& axis : spec.axes) out << ',' << cell(axis.key);
  out << ",ok";
  for (const std::string& name : metric_names()) out << ',' << cell(name);
  out << '\n';
  for (std::size_t i = 0; i < trials.size(); ++i) {
    const TrialPoint& pt = points[i];
    const TrialResult& r = trials[i];
    out << pt.trial << ',' << pt.point << ',' << pt.rep << ',' << pt.seed;
    for (const auto& [key, value] : pt.values) out << ',' << cell(value);
    out << ',' << (r.ok ? 1 : 0);
    for (const double m : r.metrics)
      out << ',' << JsonWriter::number_to_string(m);
    out << '\n';
  }
}

CampaignScheduler::CampaignScheduler(CampaignSpec spec, CampaignOptions opt)
    : spec_(std::move(spec)), opt_(std::move(opt)) {
  validate(spec_);
  if (opt_.workers < 0)
    throw std::runtime_error(
        "campaign: workers must be >= 0 (0 = hardware concurrency)");
  dist::validate(opt_.shard);
  points_ = expand_grid(spec_);
}

CampaignResult CampaignScheduler::run() {
  const int total = static_cast<int>(points_.size());
  ManifestHeader header;
  header.fingerprint = fingerprint(spec_);
  header.trials = total;
  header.metrics = static_cast<int>(metric_names().size());
  header.shard = opt_.shard;
  ResultStore store(opt_.manifest_path, header, opt_.resume);

  std::vector<TrialResult> results(points_.size());
  std::vector<bool> have(points_.size(), false);
  for (const auto& [trial, r] : store.recovered()) {
    results[static_cast<std::size_t>(trial)] = r;
    have[static_cast<std::size_t>(trial)] = true;
  }
  const int n_recovered = static_cast<int>(store.recovered().size());

  // The shard's slice of the matrix (the whole matrix when unsharded),
  // minus what the manifest already has.
  const std::vector<int> owned = dist::shard_trials(opt_.shard, total);
  std::vector<int> pending;
  pending.reserve(owned.size());
  for (const int i : owned)
    if (!have[static_cast<std::size_t>(i)]) pending.push_back(i);
  const int shard_total = static_cast<int>(owned.size());

  if (!pending.empty()) {
    // Dynamic trial queue over the deterministic pool: workers pull the
    // next pending index, so stragglers never serialize the matrix. The
    // queue order affects wall-clock only — rows land by trial index and
    // every trial's seed is a pure function of its identity.
    // A lone pending trial runs on this thread with `workers` engine
    // threads instead: a pool of one trial has nothing to fan out, and the
    // trial's own pool must not nest inside a pool chunk.
    const bool lone = pending.size() == 1;
    const int engine_threads = lone ? opt_.workers : 1;
    std::atomic<std::size_t> next{0};
    std::mutex lock;
    int done = n_recovered;
    const auto drain = [&](int) {
      while (true) {
        const std::size_t q = next.fetch_add(1);
        if (q >= pending.size()) break;
        const TrialPoint& pt =
            points_[static_cast<std::size_t>(pending[q])];
        TrialResult r;
        {
          obs::ScopedSpan trial_span("trial", pt.trial);
          r = run_trial(spec_, pt, opt_.keep_history, opt_.probe,
                        engine_threads);
        }
        store.record(r);
        std::lock_guard<std::mutex> g(lock);
        results[static_cast<std::size_t>(pt.trial)] = std::move(r);
        ++done;
        if (opt_.on_trial)
          opt_.on_trial(pt, results[static_cast<std::size_t>(pt.trial)],
                        done, shard_total);
      }
    };
    if (lone) {
      drain(0);
    } else {
      common::ThreadPool pool(opt_.workers);
      pool.run(pool.size(), drain);
    }
  }

  CampaignResult out;
  out.spec = spec_;
  out.points = points_;
  out.trials = std::move(results);
  out.shard = opt_.shard;
  if (!opt_.shard.sharded())
    out.groups = aggregate_groups(spec_, points_, out.trials);
  out.executed = static_cast<int>(pending.size());
  out.recovered = n_recovered;
  return out;
}

}  // namespace laacad::campaign
