/**
 * @file
 * A campaign population built layer by layer from outside the yield
 * layer: the harness samples each chunk of chips with the variation
 * layer's public SoA samplers and evaluates it with the circuit
 * layer's BatchChipEvaluator, under one span per layer per chunk.
 *
 * The result is bitwise what MonteCarlo::run returns for the same
 * config at one thread: the same per-chip substreams, the same
 * kStatChunk chunks, and the same chunk-order statistics merge. The
 * traced runs use it so sampling and evaluation get their own spans,
 * and the reference digest checks that it matches MonteCarlo::run.
 */

#ifndef YAC_PERFBENCH_POPULATION_HH
#define YAC_PERFBENCH_POPULATION_HH

#include "layer_trace.hh"
#include "variation/soa_batch.hh"
#include "yield/monte_carlo.hh"

namespace perfbench
{

/** MonteCarlo::run(config) at one thread, one span per layer call. */
yac::MonteCarloResult
layeredPopulation(const yac::MonteCarlo &mc,
                  const yac::BatchChipEvaluator &evaluator,
                  const yac::CampaignConfig &config, LayerTrace &trace,
                  yac::ChipBatchSoa &arena);

/** Bytes a materialized population holds per chip. */
double populationBytesPerChip(const yac::MonteCarloResult &population);

} // namespace perfbench

#endif // YAC_PERFBENCH_POPULATION_HH
