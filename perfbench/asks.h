#ifndef PERFBENCH_ASKS_H_
#define PERFBENCH_ASKS_H_

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "data/brandeis_cs.h"
#include "graph/path.h"
#include "plan/request.h"

namespace perfbench {

/// One advising question, as the program receives it: the JSON text of an
/// ExplorationRequest document plus the envelope deadline it is sent with.
struct Ask {
  std::string request_json;
  double deadline_ms = 0.0;
  /// Asked about a horizon whose full answer is past the ask's size cap,
  /// so the server's degradation ladder has to answer it.
  bool long_horizon = false;
  int student = 0;
};

/// What distinguishes one workload's asks from another's. Everything else
/// about an ask (the split between goal-driven, ranked and deadline-driven
/// asks, horizons, top_k, deadlines) is a constant in asks.cc; those values
/// are assumptions, not measurements (see README.md).
struct AskMix {
  /// Share of long asks: a fresh student's four-semester question whose
  /// answer is past its size cap, so the degradation ladder answers it.
  double long_share = 0.0;
  /// Semesters ahead a deadline-driven ask looks, at most; deadline-driven
  /// graphs grow fastest with the horizon.
  int max_deadline_horizon = 2;
};

/// A seeded population of simulated students. Each student is a
/// goal-seeking transcript walk through the Brandeis window
/// (data::SimulateTranscripts from a fresh start, in a term from which the
/// CS major is still reachable, to the major by Fall 2015); an ask is posed
/// from a prefix of that walk, so start terms spread over the window and
/// completed sets are ones real students reach.
class StudentPopulation {
 public:
  StudentPopulation(const coursenav::data::BrandeisDataset& dataset,
                    int num_students, uint64_t seed);

  /// Draws one ask. Asks are independent of each other; `rng` carries the
  /// workload seed.
  Ask Draw(std::mt19937_64& rng, const AskMix& mix) const;

  int size() const { return static_cast<int>(transcripts_.size()); }

 private:
  std::string RequestJson(const coursenav::LearningPath& walk, int prefix,
                          coursenav::TaskType type, int horizon, int top_k,
                          bool long_ask) const;

  const coursenav::LearningPath& walk(const Ask& ask) const {
    return transcripts_[static_cast<size_t>(ask.student)];
  }

  const coursenav::data::BrandeisDataset& dataset_;
  std::vector<coursenav::LearningPath> transcripts_;
  /// Students entering in the window's first term come first.
  int first_entry_size_ = 0;
  /// The goal every goal-driven and ranked ask names: the conjunction of
  /// the seven core courses.
  std::string core_goal_;
};

/// Uniform double in [0, 1) from the top 53 bits of one draw.
inline double Uniform(std::mt19937_64& rng) {
  return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

/// Zipf(s) popularity over `n` items: item i is drawn with weight
/// 1 / (i + 1)^s. Returns the cumulative weights for DrawIndex.
std::vector<double> ZipfCdf(int n, double s);
int DrawIndex(std::mt19937_64& rng, const std::vector<double>& cdf);

}  // namespace perfbench

#endif  // PERFBENCH_ASKS_H_
