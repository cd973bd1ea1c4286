/**
 * @file
 * sharded_screen: a screening-only campaign through the sharded
 * service. The pilot bakes the screening limits into the shard spec
 * (service::specFromRequest), then service::Orchestrator::run fans the
 * chunks out to fork/exec'd `yacd worker` processes that checkpoint
 * every few chunks into a fresh state directory. It samples with the
 * tilted importance-sampling plan on the forced AVX2 kernels, so it
 * exercises the variation and circuit layers differently from
 * paper_report, and it skips every yield report builder.
 *
 * Each operation also checks the workers' results from outside: it
 * loads every shard checkpoint, re-evaluates each shard's first chunk
 * in-process and compares it byte for byte, merges the checkpoints
 * with summarize() and compares that with the orchestrator's summary.
 */

#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench.hh"
#include "population.hh"
#include "service/checkpoint.hh"
#include "service/orchestrator.hh"
#include "service/shard_campaign.hh"
#include "util/logging.hh"
#include "util/parallel.hh"
#include "yield/campaign.hh"

namespace perfbench
{
namespace
{

namespace fs = std::filesystem;
namespace svc = yac::service;

/** Concurrent worker processes; each runs one thread, and the
 *  orchestrator's own thread mostly sleeps between polls. */
constexpr std::size_t kWorkers = 3;
constexpr std::size_t kCheckpointEvery = 2;

class ShardedScreen : public Workload
{
  public:
    explicit ShardedScreen(const RunOptions &opts)
        : chips_(opts.smoke ? 3000 : 30000),
          shards_(opts.smoke ? kWorkers : 3 * kWorkers), seed_(opts.seed),
          yacd_(opts.yacd),
          stateRoot_((fs::path(opts.outDir) / "sharded_state").string())
    {
        if (yacd_.empty() || !fs::exists(yacd_))
            yac_fatal("sharded_screen needs --yacd pointing at the yacd "
                      "binary, got '", yacd_, "'");
    }

    void
    setup() override
    {
        mc_ = std::make_unique<yac::MonteCarlo>();
        evaluator_ = std::make_unique<yac::BatchChipEvaluator>(
            mc_->geometry(), mc_->technology());
        request_ = yac::CampaignRequest{};
        request_.spec = yac::CampaignConfig(chips_, seed_);
        request_.spec.threads = 1;
        request_.engine.simd = yac::vecmath::SimdMode::Avx2;
        request_.engine.sampling = yac::SamplingPlan::tilted(1.5);
        fs::remove_all(stateRoot_);
        fs::create_directories(stateRoot_);
    }

    OpResult
    run(LayerTrace &trace) override
    {
        OpResult op;
        const std::uint64_t avx2_before = counterValue("simd_dispatch_avx2");
        const std::uint64_t scalar_before =
            counterValue("simd_dispatch_scalar");

        // The pilot: limits derived from the campaign's own population.
        svc::ShardCampaignSpec spec;
        {
            auto span = trace.span("service.specFromRequest");
            if (!trace.recording()) {
                spec = svc::specFromRequest(request_);
            } else {
                const yac::MonteCarloResult pilot = layeredPopulation(
                    *mc_, *evaluator_, request_.config(), trace, arena_);
                bytesPerChip_ = populationBytesPerChip(pilot);
                yac::ResolvedScreening screening;
                {
                    auto s = trace.span("yield.resolveScreening");
                    screening = yac::resolveScreening(pilot, request_);
                }
                yac::CampaignRequest baked = request_;
                baked.policy.delayLimitPs = screening.limits.delayLimitPs;
                baked.policy.leakageLimitMw = screening.limits.leakageLimitMw;
                baked.policy.binEdges = screening.binEdges;
                spec = svc::specFromRequest(baked);
            }
        }

        // A fresh state directory: the campaign never resumes.
        const std::string state =
            (fs::path(stateRoot_) / ("op_" + std::to_string(opIndex_++)))
                .string();
        fs::remove_all(state);
        svc::OrchestratorConfig config;
        config.shards = shards_;
        config.maxWorkers = kWorkers;
        config.stateDir = state;
        config.checkpointEveryChunks = kCheckpointEvery;
        config.workerBinary = yacd_;
        config.workerThreads = 1;
        const double worker_cpu0 = childCpuSeconds();
        svc::CampaignSummary summary;
        std::vector<svc::ShardPlan> plan;
        {
            auto span = trace.span("service.Orchestrator::run");
            svc::Orchestrator orchestrator(spec, config);
            plan = orchestrator.plan();
            summary = orchestrator.run();
        }
        workerCpuS_ = childCpuSeconds() - worker_cpu0;
        op.chips = double(summary.chips);

        // Check the workers' output from outside the service.
        const std::uint64_t hash = spec.contentHash();
        std::vector<svc::ChunkAccum> accums;
        std::vector<svc::ShardCheckpoint> checkpoints(plan.size());
        checkpointBytes_ = 0.0;
        for (std::size_t s = 0; s < plan.size(); ++s) {
            svc::CheckpointStatus status;
            {
                auto span = trace.span("service.loadCheckpoint");
                status = svc::loadCheckpoint(plan[s].checkpointPath, hash,
                                             &checkpoints[s]);
            }
            if (status != svc::CheckpointStatus::Ok ||
                !checkpoints[s].complete()) {
                op.error = std::string("shard checkpoint not complete: ") +
                    svc::checkpointStatusName(status);
                return op;
            }
            accums.insert(accums.end(), checkpoints[s].accums.begin(),
                          checkpoints[s].accums.end());
            checkpointBytes_ += savedBytes(plan[s]);
        }
        {
            const svc::ShardEvaluator evaluator(spec);
            for (const svc::ShardPlan &shard : plan) {
                svc::ChunkAccum local;
                {
                    auto span = trace.span("service.evaluateChunks");
                    evaluator.evaluateChunks(shard.chunkBegin,
                                             shard.chunkBegin + 1, &local);
                }
                if (std::memcmp(&local, &accums[shard.chunkBegin],
                                sizeof local) != 0)
                    op.error = "worker chunk differs from in-process chunk";
            }
        }
        svc::CampaignSummary merged;
        {
            auto span = trace.span("service.summarize");
            merged = svc::summarize(spec, accums);
        }
        if (std::memcmp(&merged, &summary, sizeof merged) != 0)
            op.error = "merged checkpoints differ from the orchestrator";
        {
            // Re-publish the first shard's checkpoint, as a worker does.
            auto span = trace.span("service.saveCheckpoint");
            if (!svc::saveCheckpoint(
                    (fs::path(state) / "resave.ckpt").string(),
                    checkpoints[0]))
                op.error = "cannot save a checkpoint";
        }
        fs::remove_all(state);

        if (counterValue("simd_dispatch_avx2") == avx2_before ||
            counterValue("simd_dispatch_scalar") != scalar_before)
            op.error = "the campaign did not resolve the AVX2 kernels";
        if (summary.chips != chips_)
            op.error = "summary lost chips";

        Digest d;
        d.add(hash);
        d.bytes(&summary, sizeof summary);
        op.digest = d.value();
        return op;
    }

    void
    addLayerMetrics(const OpSpans &spans, OpResult &op) const override
    {
        const double orchestrate_s =
            1e-9 * spans.totalNs("service.Orchestrator::run");
        op.layer["variation.sample_ns_per_chip"] =
            spans.totalNs("variation.sampleChipSoaBlock") / double(chips_);
        op.layer["variation.chips_sampled"] = double(chips_);
        op.layer["circuit.eval_ns_per_chip"] =
            spans.totalNs("circuit.evaluateChip") / double(chips_);
        op.layer["yield.population_bytes_per_chip"] = bytesPerChip_;
        op.layer["service.pilot_s"] =
            1e-9 * spans.totalNs("service.specFromRequest");
        op.layer["service.orchestrate_s"] = orchestrate_s;
        op.layer["service.worker_cpu_s"] = workerCpuS_;
        op.layer["service.worker_busy_share"] =
            workerCpuS_ / (double(kWorkers) * orchestrate_s);
        op.layer["service.worker_peak_rss_mb"] = childPeakRssMb();
        op.layer["service.chunk_ns_per_chip"] =
            spans.totalNs("service.evaluateChunks") /
            double(spans.count("service.evaluateChunks") *
                   yac::parallel::kStatChunk);
        op.layer["service.checkpoint_save_ms"] =
            1e-6 * spans.totalNs("service.saveCheckpoint");
        op.layer["service.checkpoint_load_ms"] =
            1e-6 * spans.totalNs("service.loadCheckpoint");
        op.layer["service.checkpoint_bytes"] = checkpointBytes_;
        op.layer["service.merge_ms"] =
            1e-6 * spans.totalNs("service.summarize");
    }

  private:
    /** Bytes a worker wrote to @p shard's checkpoint over the run: it
     *  republishes the whole completed prefix every kCheckpointEvery
     *  chunks and at the end. */
    static double
    savedBytes(const svc::ShardPlan &shard)
    {
        const double record = sizeof(svc::ChunkAccum);
        const std::size_t chunks = shard.chunkEnd - shard.chunkBegin;
        const double header =
            double(fs::file_size(shard.checkpointPath)) - chunks * record;
        double bytes = 0.0;
        for (std::size_t done = 0; done < chunks;) {
            done = std::min(chunks, done + kCheckpointEvery);
            bytes += header + done * record;
        }
        return bytes;
    }

    std::size_t chips_;
    std::size_t shards_;
    std::uint64_t seed_;
    std::string yacd_;
    std::string stateRoot_;
    std::unique_ptr<yac::MonteCarlo> mc_;
    std::unique_ptr<yac::BatchChipEvaluator> evaluator_;
    yac::CampaignRequest request_;
    yac::ChipBatchSoa arena_;
    std::size_t opIndex_ = 0;
    double workerCpuS_ = 0.0;
    double checkpointBytes_ = 0.0;
    double bytesPerChip_ = 0.0;
};

} // namespace

std::unique_ptr<Workload>
makeShardedScreen(const RunOptions &opts)
{
    return std::make_unique<ShardedScreen>(opts);
}

} // namespace perfbench
