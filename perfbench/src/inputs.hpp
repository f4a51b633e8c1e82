#pragma once
// Seeded benchmark inputs: synthetic chromosomes written as the files the
// program reads (FASTA reference, dbSNP prior table, SOAP alignments), the
// planted truth kept in memory for scoring, and the set-up step that loads
// the files back.

#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/util.hpp"
#include "src/core/genome_pipeline.hpp"
#include "src/core/snp_row.hpp"
#include "src/genome/dbsnp.hpp"
#include "src/genome/reference.hpp"
#include "src/genome/synthetic.hpp"

namespace perfbench {

/// How one set of chromosomes is simulated.
struct GenomeShape {
  std::vector<std::string> names;  ///< chromosome names
  std::vector<u64> sites;          ///< sites per chromosome
  double depth = 10.0;             ///< baseline sequencing depth
  double snp_rate = 0.002;         ///< planted SNPs per site
  bool hotspots = false;           ///< add deep pileup islands
};

/// `count` chromosomes spread evenly over the human karyotype (every
/// 24/count-th entry, largest first), scaled so chr1 has `chr1_sites`.
GenomeShape karyotype_shape(std::size_t count, u64 chr1_sites, double depth);

/// One generated chromosome: its input files and the planted truth.
struct ChromInput {
  std::string name;
  u64 sites = 0;
  fs::path fasta;
  fs::path dbsnp;
  fs::path alignment;
  std::vector<gsnp::genome::PlantedSnp> truth;
};

/// Simulate `shape` from `seed` into `dir`.  The same (shape, seed) always
/// writes the same bytes.
std::vector<ChromInput> make_inputs(const fs::path& dir, const GenomeShape& shape,
                                    u64 seed);

/// Chromosome inputs loaded for the pipeline: references and prior tables
/// read back from their files, and the ChromosomeJobs pointing at them.
struct LoadedGenome {
  std::vector<gsnp::genome::Reference> refs;
  std::vector<gsnp::genome::DbSnpTable> dbsnp;
  std::vector<gsnp::core::ChromosomeJob> jobs;
  u64 sites = 0;
};

/// Read every FASTA and dbSNP file of `inputs` (the genome set-up work).
std::unique_ptr<LoadedGenome> load_inputs(const std::vector<ChromInput>& inputs);

/// Calls scored against planted truth: a call is a site whose consensus
/// genotype differs from hom-ref with quality >= kMinCallQuality; it is a
/// true positive only when the genotype matches the planted one exactly.
/// A planted SNP covered by >= 4 reads and not called is a false negative.
struct Score {
  u64 tp = 0;
  u64 fp = 0;
  u64 fn = 0;
  double precision() const;
  double recall() const;
  Score& operator+=(const Score& o);
};
inline constexpr int kMinCallQuality = 20;

Score score_calls(const std::vector<gsnp::core::SnpRow>& rows,
                  const std::vector<gsnp::genome::PlantedSnp>& truth);

/// Score a published GSNPOUT2 output file.
Score score_output(const fs::path& output,
                   const std::vector<gsnp::genome::PlantedSnp>& truth);

}  // namespace perfbench
