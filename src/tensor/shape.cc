#include "tensor/shape.h"

#include <sstream>

#include "util/check.h"

namespace comet {

Shape::Shape(std::initializer_list<int64_t> dims) : dims_(dims) {
  for (int64_t d : dims_) {
    COMET_CHECK_GE(d, 0) << "negative dimension in shape";
  }
}

void Shape::SetDims2(int64_t rows, int64_t cols) {
  COMET_CHECK_GE(rows, 0) << "negative dimension in shape";
  COMET_CHECK_GE(cols, 0) << "negative dimension in shape";
  dims_.resize(2);
  dims_[0] = rows;
  dims_[1] = cols;
}

int64_t Shape::dim(size_t i) const {
  COMET_CHECK_LT(i, dims_.size());
  return dims_[i];
}

int64_t Shape::NumElements() const {
  int64_t n = 1;
  for (int64_t d : dims_) {
    n *= d;
  }
  return n;
}

int64_t Shape::FlatIndex(std::span<const int64_t> index) const {
  COMET_CHECK_EQ(index.size(), dims_.size());
  int64_t flat = 0;
  for (size_t i = 0; i < index.size(); ++i) {
    COMET_CHECK_GE(index[i], 0);
    COMET_CHECK_LT(index[i], dims_[i]);
    flat = flat * dims_[i] + index[i];
  }
  return flat;
}

std::string Shape::ToString() const {
  std::ostringstream os;
  os << "[";
  for (size_t i = 0; i < dims_.size(); ++i) {
    if (i > 0) {
      os << ", ";
    }
    os << dims_[i];
  }
  os << "]";
  return os.str();
}

}  // namespace comet
