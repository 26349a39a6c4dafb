// A std::streambuf for testing bounded readers: it serves `prefix`, then
// `filler` bytes of 'x' with no newline, 256 bytes at a time, and counts
// the bytes its reader took.
#pragma once

#include <algorithm>
#include <cstddef>
#include <streambuf>
#include <string>
#include <utility>

namespace laacad::test {

class CountingBuf : public std::streambuf {
 public:
  explicit CountingBuf(std::size_t filler, std::string prefix = "")
      : prefix_(std::move(prefix)), filler_(filler) {}
  std::size_t taken = 0;

 protected:
  int_type underflow() override {
    std::size_t n = std::min(prefix_.size() - served_, sizeof(chunk_));
    if (n > 0) {
      std::copy_n(prefix_.data() + served_, n, chunk_);
      served_ += n;
    } else {
      n = std::min(filler_, sizeof(chunk_));
      if (n == 0) return traits_type::eof();
      std::fill(chunk_, chunk_ + n, 'x');
      filler_ -= n;
    }
    taken += n;
    setg(chunk_, chunk_, chunk_ + n);
    return traits_type::to_int_type(chunk_[0]);
  }

 private:
  std::string prefix_;
  std::size_t served_ = 0;
  std::size_t filler_;
  char chunk_[256];
};

}  // namespace laacad::test
