// Seeded violations for the recorder-hot rule: the hot scopes are resolved
// from the actual FunctionDecls (class-qualified names), so same-named
// methods outside the catalogue — and cold methods like Arm() — stay clean.
// Golden: recorder_hot.expected.

#include "std_mock.h"

namespace tfc {

class TimeSeriesRecorder {
 public:
  void Tick(long now) {
    auto it = cells_.find(now);  // VIOLATION recorder-hot (lookup per event)
    (void)it;
    total_ += now;
  }

  void FoldTile(long v) {
    buf_[0] = v;  // clean: indexed store into a pre-sized buffer
    auto it = cells_.find(v);  // VIOLATION recorder-hot (lookup per folded sample)
    (void)it;
  }

  void Arm() {
    auto it = cells_.find(0);  // clean: Arm() is the sanctioned cold setup
    (void)it;
  }

 private:
  std::map<long, long> cells_;
  long total_ = 0;
  long buf_[8] = {};
};

class FlightRecorder {
 public:
  void Record(long v) {
    ring_.push_back(v);      // VIOLATION recorder-hot (growth in append path)
    long* p = new long(v);   // VIOLATION recorder-hot (allocation per event)
    delete p;
  }

 private:
  std::vector<long> ring_;
};

}  // namespace tfc
