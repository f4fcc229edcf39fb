#include "graph/matching.hpp"

#include <limits>
#include <queue>

#include "support/assert.hpp"

namespace rs::graph {

namespace {
constexpr int kInf = std::numeric_limits<int>::max();
}

BipartiteMatching::BipartiteMatching(int n_left, int n_right)
    : nl_(n_left), nr_(n_right), adj_(n_left),
      match_l_(n_left, -1), match_r_(n_right, -1) {
  RS_REQUIRE(n_left >= 0 && n_right >= 0, "negative partition size");
}

void BipartiteMatching::reset(int n_left, int n_right) {
  RS_REQUIRE(n_left >= 0 && n_right >= 0, "negative partition size");
  nl_ = n_left;
  nr_ = n_right;
  if (static_cast<int>(adj_.size()) < n_left) adj_.resize(n_left);
  for (int l = 0; l < n_left; ++l) adj_[l].clear();
  match_l_.assign(n_left, -1);
  match_r_.assign(n_right, -1);
  solved_ = false;
}

void BipartiteMatching::add_edge(int left, int right) {
  RS_REQUIRE(left >= 0 && left < nl_, "left vertex out of range");
  RS_REQUIRE(right >= 0 && right < nr_, "right vertex out of range");
  adj_[left].push_back(right);
  solved_ = false;
}

bool BipartiteMatching::bfs_layers() {
  layer_.assign(nl_, kInf);
  queue_.clear();
  for (int l = 0; l < nl_; ++l) {
    if (match_l_[l] == -1) {
      layer_[l] = 0;
      queue_.push_back(l);
    }
  }
  bool found_free_right = false;
  for (std::size_t head = 0; head < queue_.size(); ++head) {
    const int l = queue_[head];
    for (const int r : adj_[l]) {
      const int l2 = match_r_[r];
      if (l2 == -1) {
        found_free_right = true;
      } else if (layer_[l2] == kInf) {
        layer_[l2] = layer_[l] + 1;
        queue_.push_back(l2);
      }
    }
  }
  return found_free_right;
}

bool BipartiteMatching::dfs_augment(int left) {
  for (const int r : adj_[left]) {
    const int l2 = match_r_[r];
    if (l2 == -1 || (layer_[l2] == layer_[left] + 1 && dfs_augment(l2))) {
      match_l_[left] = r;
      match_r_[r] = left;
      return true;
    }
  }
  layer_[left] = kInf;  // dead end; prune for this phase
  return false;
}

int BipartiteMatching::solve() {
  if (!solved_) {
    while (bfs_layers()) {
      for (int l = 0; l < nl_; ++l) {
        if (match_l_[l] == -1) dfs_augment(l);
      }
    }
    solved_ = true;
  }
  int size = 0;
  for (int l = 0; l < nl_; ++l) {
    if (match_l_[l] != -1) ++size;
  }
  return size;
}

BipartiteMatching::VertexCover BipartiteMatching::min_vertex_cover() const {
  RS_REQUIRE(solved_, "call solve() before min_vertex_cover()");
  // Z = vertices reachable from unmatched left vertices along alternating
  // paths (non-matching edges left->right, matching edges right->left).
  std::vector<bool> visited_l(nl_, false), visited_r(nr_, false);
  std::queue<int> q;
  for (int l = 0; l < nl_; ++l) {
    if (match_l_[l] == -1) {
      visited_l[l] = true;
      q.push(l);
    }
  }
  while (!q.empty()) {
    const int l = q.front();
    q.pop();
    for (const int r : adj_[l]) {
      if (r == match_l_[l] || visited_r[r]) continue;
      visited_r[r] = true;
      const int l2 = match_r_[r];
      if (l2 != -1 && !visited_l[l2]) {
        visited_l[l2] = true;
        q.push(l2);
      }
    }
  }
  // König: cover = (L \ Z) union (R intersect Z).
  VertexCover cover;
  cover.left.resize(nl_);
  cover.right.resize(nr_);
  for (int l = 0; l < nl_; ++l) cover.left[l] = !visited_l[l];
  for (int r = 0; r < nr_; ++r) cover.right[r] = visited_r[r];
  return cover;
}

}  // namespace rs::graph
