// Shared driver for the testbed figures (12 and 13).
#pragma once

#include <cmath>
#include <map>
#include <vector>

#include "bench_common.h"
#include "testbed/runner.h"
#include "util/stats.h"

namespace flash::bench {

/// Runs the full Fig. 12/13 matrix for one node count and prints the four
/// panels: success volume, success ratio, normalized overall processing
/// delay, normalized mice processing delay (both normalized by SP's mean,
/// as in the paper; computed over settled payments).
inline void run_testbed_figure(const char* fig, std::size_t nodes) {
  using testbed::TestbedConfig;
  using testbed::TestbedResult;
  using testbed::TestbedScheme;
  using testbed::testbed_scheme_name;

  print_header(fig, "testbed experiments, " + std::to_string(nodes) +
                        "-node Watts-Strogatz network");

  const std::vector<std::pair<Amount, Amount>> ranges{
      {1000, 1500}, {1500, 2000}, {2000, 2500}};
  const std::size_t runs = env_size("FLASH_BENCH_RUNS", 5);
  const std::size_t tx = fast_mode() ? 1000 : 10000;
  const std::vector<TestbedScheme> schemes{TestbedScheme::kFlash,
                                           TestbedScheme::kSpider,
                                           TestbedScheme::kShortestPath};

  struct Cell {
    RunningStat volume, ratio, delay, mice_delay;
  };
  std::map<std::pair<int, int>, Cell> cells;  // (range idx, scheme idx)

  for (std::size_t r = 0; r < ranges.size(); ++r) {
    for (std::size_t s = 0; s < schemes.size(); ++s) {
      for (std::size_t run = 0; run < runs; ++run) {
        TestbedConfig config;
        config.scheme = schemes[s];
        config.nodes = nodes;
        config.cap_lo = ranges[r].first;
        config.cap_hi = ranges[r].second;
        config.num_transactions = tx;
        config.seed = 1 + run;
        const TestbedResult result = testbed::run_testbed(config);
        Cell& cell = cells[{static_cast<int>(r), static_cast<int>(s)}];
        cell.volume.add(result.volume_succeeded);
        cell.ratio.add(result.success_ratio());
        cell.delay.add(result.avg_success_delay_ms());
        cell.mice_delay.add(result.avg_mice_success_delay_ms());
      }
    }
  }

  // Built with append rather than chained operator+ to dodge GCC 12's
  // spurious -Wrestrict at -O3 (GCC PR105329).
  const auto range_name = [&](std::size_t r) {
    std::string name = "[";
    name += fmt(ranges[r].first, 0);
    name += ',';
    name += fmt(ranges[r].second, 0);
    name += ')';
    return name;
  };

  TextTable volume, ratio, delay, mice_delay;
  std::vector<std::string> header{"capacity"};
  for (const auto scheme : schemes) {
    header.push_back(testbed_scheme_name(scheme));
  }
  volume.header(header);
  ratio.header(header);
  delay.header(header);
  mice_delay.header(header);

  double flash_vs_spider_volume = 0, flash_vs_spider_delay = 0;
  double flash_vs_spider_mice_delay = 0, flash_vs_spider_ratio = 0;
  double flash_vs_sp_ratio = 0;
  for (std::size_t r = 0; r < ranges.size(); ++r) {
    std::vector<std::string> vrow{range_name(r)}, rrow{range_name(r)};
    std::vector<std::string> drow{range_name(r)}, mrow{range_name(r)};
    const double sp_delay =
        cells[{static_cast<int>(r), 2}].delay.mean();
    const double sp_mice_delay =
        cells[{static_cast<int>(r), 2}].mice_delay.mean();
    for (std::size_t s = 0; s < schemes.size(); ++s) {
      const Cell& cell = cells[{static_cast<int>(r), static_cast<int>(s)}];
      vrow.push_back(fmt_sci(cell.volume.mean(), 3));
      rrow.push_back(fmt_pct(cell.ratio.mean()));
      drow.push_back(fmt(sp_delay > 0 ? cell.delay.mean() / sp_delay : 0, 2));
      mrow.push_back(
          fmt(sp_mice_delay > 0 ? cell.mice_delay.mean() / sp_mice_delay : 0,
              2));
    }
    volume.row(std::move(vrow));
    ratio.row(std::move(rrow));
    delay.row(std::move(drow));
    mice_delay.row(std::move(mrow));

    const Cell& flash = cells[{static_cast<int>(r), 0}];
    const Cell& spider = cells[{static_cast<int>(r), 1}];
    const Cell& sp = cells[{static_cast<int>(r), 2}];
    flash_vs_spider_volume += flash.volume.mean() / spider.volume.mean();
    flash_vs_spider_delay += 1 - flash.delay.mean() / spider.delay.mean();
    flash_vs_spider_mice_delay +=
        1 - flash.mice_delay.mean() / spider.mice_delay.mean();
    flash_vs_spider_ratio += flash.ratio.mean() - spider.ratio.mean();
    flash_vs_sp_ratio += flash.ratio.mean() - sp.ratio.mean();
  }
  const double n = static_cast<double>(ranges.size());

  std::printf("[a] success volume (%zu tx, %zu runs)\n", tx, runs);
  print_table(volume);
  std::printf("[b] success ratio\n");
  print_table(ratio);
  std::printf("[c] processing delay of settled payments, normalized to SP\n");
  print_table(delay);
  std::printf("[d] mice processing delay, normalized to SP mice\n");
  print_table(mice_delay);

  const char* paper_volume = nodes <= 50 ? "+42.5%" : "+34.4%";
  const char* paper_ratio = nodes <= 50 ? "-5.6%" : "-8.8%";
  const char* paper_sp_ratio = nodes <= 50 ? "+36.3%" : "+14.8%";
  const char* paper_delay = nodes <= 50 ? "19.4% lower" : "19.2% lower";
  const char* paper_mice = nodes <= 50 ? "26.4% lower" : "26% lower";
  const auto lower_or_higher = [](double reduction) {
    return fmt_pct(std::abs(reduction)) +
           (reduction >= 0 ? " lower" : " higher");
  };
  claim("Flash success volume vs Spider (avg)", paper_volume,
        fmt_ratio(flash_vs_spider_volume / n));
  claim("Flash success ratio vs Spider (avg gap)", paper_ratio,
        fmt_signed_pct(flash_vs_spider_ratio / n));
  claim("Flash success ratio vs SP (avg gap)", paper_sp_ratio,
        fmt_signed_pct(flash_vs_sp_ratio / n));
  claim("Flash settled delay vs Spider", paper_delay,
        lower_or_higher(flash_vs_spider_delay / n));
  claim("Flash mice settled delay vs Spider", paper_mice,
        lower_or_higher(flash_vs_spider_mice_delay / n));
}

}  // namespace flash::bench
