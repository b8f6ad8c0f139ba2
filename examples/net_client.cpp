// Using net::RmsClient against a coorm_rmsd daemon.
//
// Self-contained: hosts the daemon on a background thread in this process
// (exactly what `coorm_rmsd --listen 127.0.0.1:0` runs), then talks to it
// over real TCP the way a separate application process would:
//
//   IoExecutor   loop;                         // the client's event loop
//   RmsClient    client(loop, {{host, port}}); // one connection = one app
//   client.connect(myEndpoint);                // HELLO/WELCOME handshake
//   myApp.attach(client);                      // AppLink, same as a Session
//
// The application below is the stock RigidApp from the simulator —
// unchanged: it cannot tell a TCP link from an in-process Session.
#include <atomic>
#include <iostream>
#include <thread>

#include "coorm/apps/rigid.hpp"
#include "coorm/net/client.hpp"
#include "coorm/net/daemon.hpp"
#include "coorm/net/io_executor.hpp"
#include "coorm/rms/server.hpp"

using namespace coorm;

int main() {
  // --- daemon half (normally the separate coorm_rmsd process) -------------
  std::atomic<std::uint16_t> port{0};
  std::atomic<bool> stop{false};
  std::thread daemonThread([&] {
    net::IoExecutor executor;
    Server::Config config;
    config.reschedInterval = msec(50);
    Server server(executor, Machine::single(64), config);
    net::Daemon daemon(executor, server,
                       net::Daemon::Config{net::Endpoint{"127.0.0.1", 0}});
    port.store(daemon.port());
    while (!stop.load()) executor.runOne(msec(10));
    daemon.close();
  });
  while (port.load() == 0) std::this_thread::yield();
  std::cout << "daemon listening on 127.0.0.1:" << port.load() << "\n";

  // --- client half ---------------------------------------------------------
  net::IoExecutor loop;
  net::RmsClient link(
      loop, net::RmsClient::Config{{"127.0.0.1", port.load()}, "rigid-job"});

  RigidApp::Config jobConfig;
  jobConfig.nodes = 8;
  jobConfig.duration = msec(300);
  RigidApp job(loop, "rigid-job", jobConfig);

  link.connect(job);  // handshake: the RMS assigns the application id
  job.attach(link);   // from here the app drives the link like a Session
  std::cout << "connected as " << toString(link.app()) << "\n";

  while (!job.finished() && !job.wasKilled()) loop.runOne(msec(20));
  std::cout << "job ran on " << jobConfig.nodes << " nodes for "
            << (job.endTime() - job.startTime()) << " ms over TCP\n";

  stop.store(true);
  daemonThread.join();
  return job.finished() ? 0 : 1;
}
