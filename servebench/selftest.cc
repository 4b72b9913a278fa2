// Self-test of the benchmark's checks: a correct answer passes each check
// and every corrupted copy of it (two items swapped, one dropped, the
// degraded flag set, a wrong model stamp, an out-of-range page property,
// a lost frame, a quality inversion) is reported as a failure.
//
//   servebench_selftest [--seed N]      exit 0 when every case behaves

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "checks.h"
#include "workload.h"

namespace {

int g_bad = 0;

// `error` is what a check returned; `should_fail` says whether the case was
// corrupted.
void Expect(const char* name, const std::string& error, bool should_fail) {
  const bool failed = !error.empty();
  const bool ok = failed == should_fail;
  if (!ok) ++g_bad;
  std::printf("%s %-40s %s\n", ok ? "ok  " : "BAD ", name,
              failed ? error.c_str() : "passes");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace servebench;
  uint64_t seed = 1;
  if (argc == 3 && std::strcmp(argv[1], "--seed") == 0) {
    seed = std::strtoull(argv[2], nullptr, 10);
  }
  const rapid::data::Dataset data = MakeCatalog();
  const std::unique_ptr<rapid::core::RapidReranker> trained = TrainModel(data);
  const rapid::core::RapidReranker& model = *trained;

  Stamp stamp;
  stamp.model_name = model.name();
  stamp.min_version = 1;
  stamp.max_version = 2;

  // ---- single lists ----
  const std::vector<rapid::data::ImpressionList> lists =
      MakeLists(data, seed, 1, 1);
  const rapid::data::ImpressionList& sent = lists.front();
  const std::vector<int> reference =
      ReferenceOrders(model, data, {&sent}, 1).front();
  rapid::net::WireResponse good;
  good.model_name = stamp.model_name;
  good.model_version = 2;
  good.items = reference;
  Expect("score: served answer", CheckScore(sent, good, reference, stamp),
         false);
  {
    rapid::net::WireResponse bad = good;
    std::swap(bad.items[0], bad.items[1]);
    Expect("score: two items swapped", CheckScore(sent, bad, reference, stamp),
           true);
  }
  {
    rapid::net::WireResponse bad = good;
    bad.items.pop_back();
    Expect("score: one item dropped", CheckScore(sent, bad, reference, stamp),
           true);
  }
  {
    rapid::net::WireResponse bad = good;
    bad.items.back() = bad.items.front();
    Expect("score: one item duplicated",
           CheckScore(sent, bad, reference, stamp), true);
  }
  {
    rapid::net::WireResponse bad = good;
    bad.degraded = true;
    Expect("score: degraded set", CheckScore(sent, bad, reference, stamp),
           true);
  }
  {
    rapid::net::WireResponse bad = good;
    bad.shed = true;
    Expect("score: shed set", CheckScore(sent, bad, reference, stamp), true);
  }
  {
    rapid::net::WireResponse bad = good;
    bad.model_version = 3;
    Expect("score: unpublished version",
           CheckScore(sent, bad, reference, stamp), true);
  }
  {
    rapid::net::WireResponse bad = good;
    bad.model_name = "other";
    Expect("score: other model name", CheckScore(sent, bad, reference, stamp),
           true);
  }

  // ---- pages ----
  const std::vector<rapid::data::PageSession> pages =
      MakePages(data, seed, 1, 1);
  const rapid::data::PageSession& page = pages.front();
  std::vector<const rapid::data::ImpressionList*> page_lists;
  for (const rapid::data::ImpressionList& list : page.lists) {
    page_lists.push_back(&list);
  }
  const rapid::page::PageResult page_reference = ReferencePage(
      data, page, ReferenceOrders(model, data, page_lists, 1), true);
  rapid::net::WirePageResponse good_page;
  good_page.model_name = stamp.model_name;
  good_page.model_version = 1;
  good_page.lists = page_reference.lists;
  good_page.page_coverage = page_reference.page_coverage;
  good_page.cross_list_redundancy = page_reference.cross_list_redundancy;
  Expect("page: served answer",
         CheckPage(page, good_page, page_reference, stamp), false);
  {
    rapid::net::WirePageResponse bad = good_page;
    std::swap(bad.lists[1][0], bad.lists[1][1]);
    Expect("page: two items swapped",
           CheckPage(page, bad, page_reference, stamp), true);
  }
  {
    rapid::net::WirePageResponse bad = good_page;
    bad.lists[2].pop_back();
    Expect("page: one item dropped",
           CheckPage(page, bad, page_reference, stamp), true);
  }
  {
    rapid::net::WirePageResponse bad = good_page;
    bad.lists.pop_back();
    Expect("page: one list dropped",
           CheckPage(page, bad, page_reference, stamp), true);
  }
  {
    rapid::net::WirePageResponse bad = good_page;
    bad.degraded = true;
    Expect("page: degraded set", CheckPage(page, bad, page_reference, stamp),
           true);
  }
  {
    rapid::net::WirePageResponse bad = good_page;
    bad.model_version = 0;
    Expect("page: unstamped", CheckPage(page, bad, page_reference, stamp),
           true);
  }
  {
    rapid::net::WirePageResponse bad = good_page;
    bad.page_coverage = 1.5f;
    Expect("page: coverage above 1", CheckPageProperties(bad), true);
  }
  {
    rapid::net::WirePageResponse bad = good_page;
    bad.cross_list_redundancy = -0.25f;
    Expect("page: negative redundancy", CheckPageProperties(bad), true);
  }
  {
    rapid::net::WirePageResponse bad = good_page;
    bad.page_coverage = good_page.page_coverage * 0.5f + 0.01f;
    Expect("page: coverage differs",
           CheckPage(page, bad, page_reference, stamp), true);
  }

  // ---- delivery and quality properties ----
  Expect("delivery: all answered", CheckDelivery(10, 10, 10, 0), false);
  Expect("delivery: server missed a frame", CheckDelivery(10, 9, 10, 0), true);
  Expect("delivery: client missed an answer", CheckDelivery(10, 10, 9, 0),
         true);
  Expect("delivery: server dropped a response", CheckDelivery(10, 10, 10, 1),
         true);
  Expect("quality: beats the initial order", CheckBeatsInitial(1.83, 1.59),
         false);
  Expect("quality: below the initial order", CheckBeatsInitial(1.50, 1.59),
         true);

  std::printf("%s: %d case(s) misbehaved\n", g_bad == 0 ? "PASS" : "FAIL",
              g_bad);
  return g_bad == 0 ? 0 : 1;
}
