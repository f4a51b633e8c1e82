#include "perfbench/src/inputs.hpp"

#include "src/common/error.hpp"
#include "src/core/output_codec.hpp"
#include "src/genome/karyotype.hpp"
#include "src/reads/alignment.hpp"
#include "src/reads/simulator.hpp"

namespace perfbench {

using namespace gsnp;

GenomeShape karyotype_shape(std::size_t count, u64 chr1_sites, double depth) {
  GSNP_CHECK(count >= 1 && count <= genome::kHumanKaryotype.size());
  GenomeShape shape;
  shape.depth = depth;
  const std::size_t stride = genome::kHumanKaryotype.size() / count;
  for (std::size_t i = 0; i < count; ++i) {
    const genome::ChromosomeInfo& info = genome::kHumanKaryotype[i * stride];
    shape.names.emplace_back(info.name);
    shape.sites.push_back(genome::scaled_sites(info, chr1_sites));
  }
  return shape;
}

std::vector<ChromInput> make_inputs(const fs::path& dir, const GenomeShape& shape,
                                    u64 seed) {
  fs::create_directories(dir);
  std::vector<ChromInput> out;
  for (std::size_t i = 0; i < shape.names.size(); ++i) {
    ChromInput in;
    in.name = shape.names[i];
    in.sites = shape.sites[i];

    genome::GenomeSpec gspec;
    gspec.name = in.name;
    gspec.length = in.sites;
    gspec.seed = derive_seed(seed, i, 1);
    const genome::Reference ref = genome::generate_reference(gspec);

    genome::SnpPlantSpec pspec;
    pspec.snp_rate = shape.snp_rate;
    pspec.seed = derive_seed(seed, i, 2);
    in.truth = genome::plant_snps(ref, pspec);
    const genome::DbSnpTable dbsnp =
        genome::make_dbsnp(ref, in.truth, 0.001, derive_seed(seed, i, 3));
    const genome::Diploid individual(ref, in.truth);

    reads::ReadSimSpec rspec;
    rspec.depth = shape.depth;
    rspec.seed = derive_seed(seed, i, 4);
    if (shape.hotspots) {
      // Islands stay under the device's 1,024-thread sort block at this
      // depth, so the same input also runs on the device engine.  A fixed
      // multiplier keeps the pileup work (and peak memory) the same for
      // every seed; only the island positions move.
      genome::HotspotSpec hspec;
      hspec.islands = 2;
      hspec.island_length = 2'000;
      hspec.multiplier_lo = 20.0;
      hspec.multiplier_hi = 20.0;
      hspec.seed = derive_seed(seed, i, 5);
      rspec.hotspots = genome::place_hotspot_islands(in.sites, hspec);
    }

    in.fasta = dir / (in.name + ".fa");
    in.dbsnp = dir / (in.name + ".dbsnp");
    in.alignment = dir / (in.name + ".soap");
    genome::write_fasta_file(in.fasta, {ref});
    genome::write_dbsnp_file(in.dbsnp, dbsnp);
    reads::write_alignment_file(in.alignment,
                                reads::simulate_reads(individual, rspec));
    out.push_back(std::move(in));
  }
  return out;
}

std::unique_ptr<LoadedGenome> load_inputs(const std::vector<ChromInput>& inputs) {
  auto loaded = std::make_unique<LoadedGenome>();
  loaded->refs.reserve(inputs.size());
  loaded->dbsnp.reserve(inputs.size());
  for (const ChromInput& in : inputs) {
    std::vector<genome::Reference> refs = genome::read_fasta_file(in.fasta);
    GSNP_CHECK_MSG(refs.size() == 1, in.fasta << ": want one sequence");
    loaded->refs.push_back(std::move(refs[0]));
    loaded->dbsnp.push_back(genome::read_dbsnp_file(
        in.dbsnp, {}, nullptr, loaded->refs.back().size()));
    loaded->sites += loaded->refs.back().size();
  }
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    core::ChromosomeJob job;
    job.name = inputs[i].name;
    job.alignment_file = inputs[i].alignment;
    job.reference = &loaded->refs[i];
    job.dbsnp = &loaded->dbsnp[i];
    loaded->jobs.push_back(std::move(job));
  }
  return loaded;
}

double Score::precision() const {
  return tp + fp ? static_cast<double>(tp) / static_cast<double>(tp + fp) : 1.0;
}

double Score::recall() const {
  return tp + fn ? static_cast<double>(tp) / static_cast<double>(tp + fn) : 1.0;
}

Score& Score::operator+=(const Score& o) {
  tp += o.tp;
  fp += o.fp;
  fn += o.fn;
  return *this;
}

Score score_calls(const std::vector<core::SnpRow>& rows,
                  const std::vector<genome::PlantedSnp>& truth) {
  Score s;
  std::size_t idx = 0;
  for (const core::SnpRow& row : rows) {
    while (idx < truth.size() && truth[idx].pos < row.pos) ++idx;
    const genome::PlantedSnp* planted =
        idx < truth.size() && truth[idx].pos == row.pos ? &truth[idx] : nullptr;
    const bool called =
        row.genotype_rank >= 0 && row.ref_base < kNumBases &&
        row.genotype_rank != genotype_rank(row.ref_base, row.ref_base) &&
        row.quality >= kMinCallQuality;
    if (called) {
      if (planted && genotype_from_rank(row.genotype_rank) == planted->genotype)
        ++s.tp;
      else
        ++s.fp;
    } else if (planted && row.depth >= 4) {
      ++s.fn;
    }
  }
  return s;
}

Score score_output(const fs::path& output,
                   const std::vector<genome::PlantedSnp>& truth) {
  std::string seq_name;
  return score_calls(core::read_snp_compressed_file(output, seq_name), truth);
}

}  // namespace perfbench
