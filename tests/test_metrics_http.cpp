// MetricsHttpServer tests: a raw TCP client scrapes /metrics off the
// IoExecutor loop and the Prometheus exposition renders the catalogue.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <cerrno>
#include <string>

#include "coorm/common/metrics.hpp"
#include "coorm/net/metrics_http.hpp"
#include "coorm/net/socket.hpp"

using namespace coorm;

namespace {

/// Issues one HTTP request against the server and pumps the loop until
/// the peer closes (HTTP/1.0). Returns the raw response bytes.
std::string fetch(net::IoExecutor& executor, std::uint16_t port,
                  const std::string& request) {
  std::string error;
  net::Fd fd = net::connectTo(net::Endpoint{"127.0.0.1", port}, error);
  EXPECT_TRUE(fd.valid()) << error;
  if (!fd.valid()) return {};
  EXPECT_EQ(::send(fd.get(), request.data(), request.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char buf[4096];
  for (int spins = 0; spins < 2000; ++spins) {
    executor.runOne(1);
    const ssize_t n = ::recv(fd.get(), buf, sizeof(buf), 0);
    if (n > 0) {
      response.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) break;  // orderly close: response complete
    if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) break;
  }
  return response;
}

}  // namespace

TEST(MetricsHttp, ServesPrometheusTextOnMetricsPath) {
  metrics::reset();
  metrics::increment(metrics::Event::kSchedulePasses, 5);
  metrics::record(metrics::Histo::kPassLatencyUs, 120);
  metrics::record(metrics::Histo::kPassLatencyUs, 450);

  net::IoExecutor executor;
  net::MetricsHttpServer server(executor);
  std::string error;
  ASSERT_TRUE(server.start(net::Endpoint{"127.0.0.1", 0}, error)) << error;
  ASSERT_NE(server.port(), 0);

  const std::string response =
      fetch(executor, server.port(), "GET /metrics HTTP/1.0\r\n\r\n");
  EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(response.find("text/plain"), std::string::npos);
  EXPECT_NE(response.find("coorm_schedule_passes_total 5"),
            std::string::npos);
  EXPECT_NE(response.find("# TYPE coorm_pass_latency_us histogram"),
            std::string::npos);
  EXPECT_NE(response.find("coorm_pass_latency_us_count 2"),
            std::string::npos);
  EXPECT_NE(response.find("coorm_pass_latency_us_sum 570"),
            std::string::npos);
  EXPECT_NE(response.find("_bucket{le=\"+Inf\"} 2"), std::string::npos);
  EXPECT_EQ(server.scrapesServed(), 1u);
  metrics::reset();
}

TEST(MetricsHttp, UnknownPathIs404AndBadRequestIs400) {
  net::IoExecutor executor;
  net::MetricsHttpServer server(executor);
  std::string error;
  ASSERT_TRUE(server.start(net::Endpoint{"127.0.0.1", 0}, error)) << error;

  const std::string notFound =
      fetch(executor, server.port(), "GET /other HTTP/1.0\r\n\r\n");
  EXPECT_NE(notFound.find("404 Not Found"), std::string::npos);

  const std::string bad =
      fetch(executor, server.port(), "POST /metrics HTTP/1.0\r\n\r\n");
  EXPECT_NE(bad.find("400 Bad Request"), std::string::npos);
  EXPECT_EQ(server.scrapesServed(), 0u);
}

TEST(MetricsHttp, ServesSequentialScrapes) {
  net::IoExecutor executor;
  net::MetricsHttpServer server(executor);
  std::string error;
  ASSERT_TRUE(server.start(net::Endpoint{"127.0.0.1", 0}, error)) << error;
  for (int i = 0; i < 3; ++i) {
    const std::string response =
        fetch(executor, server.port(), "GET /metrics HTTP/1.0\r\n\r\n");
    EXPECT_NE(response.find("200 OK"), std::string::npos) << "scrape " << i;
  }
  EXPECT_EQ(server.scrapesServed(), 3u);
  server.stop();
  EXPECT_EQ(server.port(), 0);
}

TEST(MetricsHttp, RenderIsInternallyConsistent) {
  metrics::reset();
  metrics::record(metrics::Histo::kRequestRttUs, 1);
  metrics::record(metrics::Histo::kRequestRttUs, 1000000);
  const std::string text = net::renderPrometheus(metrics::snapshot());
  // Every histogram ends with a +Inf bucket equal to its _count.
  EXPECT_NE(text.find("coorm_request_rtt_us_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("coorm_request_rtt_us_count 2"), std::string::npos);
  // Counters and gauges render even at zero (Prometheus wants stable
  // series).
  EXPECT_NE(text.find("coorm_journal_fsyncs_total 0"), std::string::npos);
  EXPECT_NE(text.find("# TYPE coorm_live_sessions gauge"),
            std::string::npos);
  metrics::reset();
}
