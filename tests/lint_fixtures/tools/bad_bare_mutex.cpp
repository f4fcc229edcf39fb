// Fixture: the linter scans tools/ too. A CLI that hand-rolls a
// reader/printer queue with raw std:: locking primitives must fire
// `bare-mutex` just as library code does.
#include <condition_variable>  // expect: bare-mutex
#include <deque>
#include <mutex>               // expect: bare-mutex

struct BadPrinterQueue {
  std::mutex mu;               // expect: bare-mutex
  std::condition_variable cv;  // expect: bare-mutex
  std::deque<int> pending;

  void push(int v) {
    {
      std::lock_guard<std::mutex> lock(mu);  // expect: bare-mutex
      pending.push_back(v);
    }
    cv.notify_all();
  }
};
