/**
 * @file
 * paper_report: the paper's campaign scaled up, on the default engine
 * (naive sampling, SIMD off -- the bitwise anchor), followed by the
 * Tables 2-6 report builders and the test-floor sweep. This is what a
 * user of the reproduction runs; sampling and evaluation dominate it,
 * and the whole population is materialized.
 *
 * Untraced, an operation is runCampaign plus the builders. Traced, the
 * harness builds the same population layer by layer (population.hh),
 * then resolves screening and bins it itself, so every layer call has
 * its own span; the digest proves both paths give the same bytes.
 */

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.hh"
#include "population.hh"
#include "yield/analysis.hh"
#include "yield/binning.hh"
#include "yield/campaign.hh"
#include "yield/schemes/hyapd.hh"
#include "yield/schemes/hybrid.hh"
#include "yield/schemes/vaca.hh"
#include "yield/schemes/yapd.hh"
#include "yield/testing.hh"

namespace perfbench
{
namespace
{

void
addStats(Digest &d, const yac::PopulationStats &s)
{
    d.add(s.delayMean).add(s.delaySigma).add(s.leakMean).add(s.leakSigma);
}

void
addTable(Digest &d, const yac::LossTable &t)
{
    d.add(t.totalChips).add(t.baseTotal);
    for (const auto &[reason, n] : t.baseByReason)
        d.add(reason).add(n);
    for (const yac::SchemeLosses &s : t.schemes) {
        d.add(s.scheme).add(s.total);
        for (const auto &[reason, n] : s.byReason)
            d.add(reason).add(n);
    }
}

class PaperReport : public Workload
{
  public:
    explicit PaperReport(const RunOptions &opts)
        : chips_(opts.smoke ? 2000 : 20000), seed_(opts.seed)
    {
    }

    void
    setup() override
    {
        mc_ = std::make_unique<yac::MonteCarlo>();
        evaluator_ = std::make_unique<yac::BatchChipEvaluator>(
            mc_->geometry(), mc_->technology());
        request_ = yac::CampaignRequest{};
        request_.spec = yac::CampaignConfig(chips_, seed_);
        request_.policy.wantBins = true;
        request_.policy.scheme = &hybrid_;
        configurator_ = std::make_unique<yac::FieldConfigurator>(
            yac::LatencyTester(0.03, 0.03), yac::LeakageSensor(0.10), 1);
    }

    OpResult
    run(LayerTrace &trace) override
    {
        yac::MonteCarloResult population;
        yac::YieldConstraints limits;
        yac::CycleMapping mapping;
        yac::BinningReport bins;
        if (!trace.recording()) {
            yac::CampaignResult c = yac::runCampaign(*mc_, request_);
            population = std::move(c.population);
            limits = c.limits;
            mapping = c.mapping;
            bins = std::move(c.bins);
        } else {
            population = layeredPopulation(*mc_, *evaluator_,
                                           request_.config(), trace, arena_);
            {
                auto span = trace.span("yield.resolveScreening");
                const yac::ResolvedScreening s =
                    yac::resolveScreening(population, request_);
                limits = s.limits;
                mapping = s.mapping;
            }
            auto span = trace.span("yield.binPopulation");
            const yac::BinningAnalysis binning(
                yac::BinningAnalysis::standardBins(
                    limits.delayLimitPs, request_.policy.binTopPrice),
                limits.leakageLimitMw);
            bins = binning.binPopulation(population.regular,
                                         population.weights, hybrid_);
        }

        OpResult op;
        op.chips = double(population.regular.size());
        bytesPerChip_ = populationBytesPerChip(population);
        Digest d;
        addStats(d, population.regularStats);
        addStats(d, population.horizontalStats);
        for (std::size_t i = 0; i < population.regular.size(); ++i) {
            d.add(population.regular[i].delay())
                .add(population.regular[i].leakage())
                .add(population.horizontal[i].delay())
                .add(population.weights[i]);
        }
        d.add(limits.delayLimitPs).add(limits.leakageLimitMw);
        d.add(bins.scrapped).add(bins.totalRevenue);
        for (int n : bins.binCounts)
            d.add(n);

        // Tables 2-5: both layouts under the nominal, relaxed and
        // strict policies.
        std::vector<yac::LossTable> tables;
        for (const yac::ConstraintPolicy &policy :
             {yac::ConstraintPolicy::nominal(),
              yac::ConstraintPolicy::relaxed(),
              yac::ConstraintPolicy::strict()}) {
            const yac::YieldConstraints c = population.constraints(policy);
            const yac::CycleMapping m = population.cycleMapping(policy);
            auto span = trace.span("yield.buildLossTable");
            tables.push_back(yac::buildLossTable(population.regular,
                                                 population.weights, c, m,
                                                 {&yapd_, &vaca_, &hybrid_}));
            tables.push_back(yac::buildLossTable(
                population.horizontal, population.weights, c, m,
                {&hyapd_, &vaca_, &hybridH_}));
        }
        for (const yac::LossTable &t : tables)
            addTable(d, t);

        // Table 6's chip frequencies: the configurations each scheme
        // saves.
        for (const yac::Scheme *scheme :
             std::initializer_list<const yac::Scheme *>{&yapd_, &vaca_,
                                                        &hybrid_}) {
            auto span = trace.span("yield.savedConfigCensus");
            for (const auto &[config, n] : yac::savedConfigCensus(
                     population.regular, limits, mapping, *scheme))
                d.add(config).add(n);
        }

        yac::TestFloorReport floor;
        {
            auto span = trace.span("yield.configurePopulation");
            floor = configurator_->configurePopulation(
                population.regular, hybrid_, limits, mapping, 777);
        }
        d.add(floor.chips).add(floor.shipped).add(floor.escapes)
            .add(floor.overkill);
        op.digest = d.value();

        // The paper's shape claims, on any seed.
        const yac::LossTable &nominal = tables[0];
        if (nominal.totalChips != int(chips_))
            op.error = "loss table lost chips";
        else if (nominal.schemes[2].total > nominal.schemes[0].total ||
                 nominal.schemes[2].total > nominal.schemes[1].total)
            op.error = "Hybrid loses more chips than YAPD or VACA";
        else if (floor.shipped > floor.chips)
            op.error = "test floor shipped more chips than it saw";
        return op;
    }

    void
    addLayerMetrics(const OpSpans &spans, OpResult &op) const override
    {
        const double chips = double(chips_);
        op.layer["variation.sample_ns_per_chip"] =
            spans.totalNs("variation.sampleChipSoa") / chips;
        op.layer["variation.chips_sampled"] = chips;
        op.layer["circuit.eval_ns_per_chip"] =
            spans.totalNs("circuit.evaluateChip") / chips;
        op.layer["yield.loss_table_ms"] =
            1e-6 * spans.totalNs("yield.buildLossTable");
        op.layer["yield.census_ms"] =
            1e-6 * spans.totalNs("yield.savedConfigCensus");
        op.layer["yield.binning_ms"] =
            1e-6 * spans.totalNs("yield.binPopulation");
        op.layer["yield.test_floor_ms"] =
            1e-6 * spans.totalNs("yield.configurePopulation");
        op.layer["yield.population_bytes_per_chip"] = bytesPerChip_;
    }

  private:
    std::size_t chips_;
    std::uint64_t seed_;
    std::unique_ptr<yac::MonteCarlo> mc_;
    std::unique_ptr<yac::BatchChipEvaluator> evaluator_;
    yac::CampaignRequest request_;
    std::unique_ptr<yac::FieldConfigurator> configurator_;
    yac::ChipBatchSoa arena_;
    double bytesPerChip_ = 0.0;

    yac::YapdScheme yapd_;
    yac::VacaScheme vaca_;
    yac::HybridScheme hybrid_;
    yac::HYapdScheme hyapd_;
    yac::HybridHScheme hybridH_;
};

} // namespace

std::unique_ptr<Workload>
makePaperReport(const RunOptions &opts)
{
    return std::make_unique<PaperReport>(opts);
}

} // namespace perfbench
