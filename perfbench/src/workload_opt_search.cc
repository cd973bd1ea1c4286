/**
 * @file
 * opt_search: fixed-budget coordinate-descent design-space searches
 * (opt::Optimizer::run) on the default engine, each with a cold
 * in-memory ProbeCache. Every probe is a small campaign; only the
 * row-group and bitline axes change the chips, yet every probe
 * re-samples, so the populations repeat. Without this workload the opt
 * layer would go unmeasured. The market is baked once, in set-up.
 *
 * An operation is kSearches optimizer runs, one per tester noise
 * stream; their probes are the operations counted as attempted. One
 * search's trajectory, and so its cost per chip and its peak memory,
 * depends on where the tester noise tips a comparison; several
 * searches per operation keep both close across seeds. Traced, the
 * harness replays the reference trajectories through ProbeCache::lookup
 * and ProbeEvaluator::evaluate itself, one span per call, and checks
 * every probe's result.
 */

#include <cstdint>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "bench.hh"
#include "opt/optimizer.hh"
#include "opt/probe.hh"
#include "opt/probe_cache.hh"

namespace perfbench
{
namespace
{

namespace opt = yac::opt;

/** Optimizer runs per operation, each on its own tester seed. */
constexpr std::uint64_t kSearches = 3;

using Trajectory = std::vector<std::pair<opt::DesignPoint, opt::ProbeResult>>;

class OptSearch : public Workload
{
  public:
    explicit OptSearch(const RunOptions &opts) : seed_(opts.seed)
    {
        // The seed picks the tester's noise draws. The population and
        // the searches' restart draws stay the paper's.
        scenario_.chips = opts.smoke ? 500 : 1000;
        config_.budget = opts.smoke ? 6 : 16;
        config_.restarts = 1;
        config_.mode = "cd";
    }

    void
    setup() override
    {
        opt::ProbeScenario scenario = scenario_;
        scenario.bakeMarket();
        evaluators_.clear();
        for (std::uint64_t j = 0; j < kSearches; ++j) {
            scenario.testSeed = seed_ * kSearches + j;
            evaluators_.push_back(
                std::make_unique<opt::ProbeEvaluator>(scenario));
        }
    }

    OpResult
    run(LayerTrace &trace) override
    {
        const std::uint64_t campaigns0 = counterValue("opt_probe_campaigns");
        const std::uint64_t chips0 = counterValue("chips_sampled");
        const bool replay = trace.recording() && !reference_.empty();
        std::vector<Trajectory> searches(kSearches);
        std::vector<std::vector<bool>> cached(kSearches);
        for (std::uint64_t j = 0; j < kSearches; ++j) {
            if (replay)
                replaySearch(*evaluators_[j], reference_[j], trace,
                             searches[j], cached[j]);
            else
                runSearch(*evaluators_[j], searches[j], cached[j]);
        }

        OpResult op;
        op.attempted = 0;
        campaigns_ = double(counterValue("opt_probe_campaigns") - campaigns0);
        chipsSampled_ = double(counterValue("chips_sampled") - chips0);
        op.chips = chipsSampled_;
        std::size_t hits = 0;
        std::size_t populations = 0;
        Digest d;
        for (std::uint64_t j = 0; j < kSearches; ++j) {
            const Trajectory &steps = searches[j];
            op.attempted += steps.size();
            std::set<std::pair<std::size_t, bool>> distinct;
            for (std::size_t i = 0; i < steps.size(); ++i) {
                const auto &[point, result] = steps[i];
                d.add(point.idx).add(result.objective()).add(
                    bool(cached[j][i]));
                hits += cached[j][i] ? 1 : 0;
                if (!cached[j][i])
                    distinct.emplace(point.rowGroupsPerBank(),
                                     point.bitlineSplit());
                if (!reference_.empty() &&
                    (i >= reference_[j].size() ||
                     !(reference_[j][i].first == point) ||
                     reference_[j][i].second.objective() !=
                         result.objective()))
                    ++op.failed;
            }
            populations += distinct.size();
            if (steps.size() != config_.budget)
                op.error = "the optimizer did not spend its probe budget";
            else if (!(steps[0].first == opt::DesignPoint::paperBaseline()))
                op.error = "the first probe is not the paper baseline";
        }
        op.counts["probes_per_s"] = double(op.attempted);
        op.digest = d.value();
        if (reference_.empty())
            reference_ = searches;

        hitRatio_ = double(hits) / double(op.attempted);
        reuseRatio_ = double(populations) / campaigns_;
        return op;
    }

    void
    addLayerMetrics(const OpSpans &spans, OpResult &op) const override
    {
        (void)spans;
        op.layer["variation.chips_sampled"] = chipsSampled_;
        op.layer["opt.campaigns_run"] = campaigns_;
        op.layer["opt.probes_requested"] = double(kSearches * config_.budget);
        op.layer["opt.cache_hit_ratio"] = hitRatio_;
        op.layer["opt.population_reuse_ratio"] = reuseRatio_;
    }

  private:
    void
    runSearch(const opt::ProbeEvaluator &evaluator, Trajectory &steps,
              std::vector<bool> &cached) const
    {
        opt::ProbeCache cache;
        opt::Optimizer optimizer(evaluator, cache, config_);
        const opt::OptimizerReport report = optimizer.run();
        for (const opt::TrajectoryStep &s : report.trajectory) {
            steps.emplace_back(s.point, s.result);
            cached.push_back(s.cached);
        }
    }

    /** The optimizer's probe(): lookup, else evaluate and insert. */
    static void
    replaySearch(const opt::ProbeEvaluator &evaluator,
                 const Trajectory &reference, LayerTrace &trace,
                 Trajectory &steps, std::vector<bool> &cached)
    {
        opt::ProbeCache cache;
        for (const auto &[point, expected] : reference) {
            const std::uint64_t key =
                opt::probeKey(evaluator.scenario(), point);
            const opt::ProbeResult *hit = nullptr;
            {
                auto span = trace.span("opt.lookup");
                hit = cache.lookup(key);
            }
            cached.push_back(hit != nullptr);
            if (hit != nullptr) {
                steps.emplace_back(point, *hit);
                continue;
            }
            opt::ProbeResult result;
            {
                auto span = trace.span("opt.evaluate");
                result = evaluator.evaluate(point);
            }
            cache.insert(key, result);
            steps.emplace_back(point, result);
        }
    }

    std::uint64_t seed_;
    opt::ProbeScenario scenario_;
    opt::OptimizerConfig config_;
    std::vector<std::unique_ptr<opt::ProbeEvaluator>> evaluators_;
    std::vector<Trajectory> reference_;
    double campaigns_ = 0.0;
    double chipsSampled_ = 0.0;
    double hitRatio_ = 0.0;
    double reuseRatio_ = 0.0;
};

} // namespace

std::unique_ptr<Workload>
makeOptSearch(const RunOptions &opts)
{
    return std::make_unique<OptSearch>(opts);
}

} // namespace perfbench
