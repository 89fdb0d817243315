/// broadcastd — the live broadcast daemon.
///
/// Cycles one index family's broadcast program over a real socket on a
/// real timer: any number of clients (tools/live_client or a
/// transport::StreamTransport embedded elsewhere) connect, receive the
/// build recipe + timetable, and then the bucket stream from their tune-in
/// instant, generation republications and coded-parity interleaves
/// included. SIGINT/SIGTERM trigger a clean final-cycle shutdown: every
/// connection finishes its current cycle, receives a kShutdown frame at
/// the boundary, and the daemon exits 0.
///
/// Run with --help for the flags. Prints the bound endpoint ("listening on
/// tcp:PORT") once serving, so scripts can wait for readiness on stdout.

#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <string>

#include "common/flags.hpp"
#include "transport/broadcast_daemon.hpp"
#include "wire/framing.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;
void HandleStop(int) { g_stop = 1; }

bool ParseFamily(const std::string& name, dsi::wire::FamilyId* out) {
  if (name == "dsi") *out = dsi::wire::FamilyId::kDsi;
  else if (name == "rtree") *out = dsi::wire::FamilyId::kRtree;
  else if (name == "hci") *out = dsi::wire::FamilyId::kHci;
  else if (name == "expindex") *out = dsi::wire::FamilyId::kExpIndex;
  else return false;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dsi;
  wire::HelloPayload recipe;
  recipe.seed = 42;
  recipe.num_objects = 500;
  std::string listen;
  std::string family = "dsi";
  double pps = 0.0;
  common::Flags flags;
  flags.Add("listen", &listen, "endpoint to serve: tcp:PORT or unix:PATH");
  flags.Add("family", &family, "dsi, rtree, hci or expindex");
  flags.Add("n", &recipe.num_objects, "dataset cardinality");
  flags.Add("seed", &recipe.seed, "dataset and update-stream seed");
  flags.Add("capacity", &recipe.packet_capacity, "packet capacity in bytes");
  flags.Add("order", &recipe.hilbert_order, "Hilbert curve order");
  flags.Add("m", &recipe.num_segments, "DSI broadcast segments");
  flags.Add("generations", &recipe.num_generations, "broadcast generations");
  flags.Add("updates", &recipe.updates_per_gen, "update ops per generation");
  flags.Add("gen-cycles", &recipe.gen_cycles, "cycles per generation");
  flags.Add("code-group", &recipe.coding_group, "coding group (0 = uncoded)");
  flags.Add("code-parity", &recipe.coding_parity, "parity buckets per group");
  flags.Add("pps", &pps, "packets per second (0 = unthrottled)");
  flags.Parse(argc, argv, /*usage_exit=*/1);
  if (!ParseFamily(family, &recipe.family)) {
    std::fprintf(stderr, "broadcastd: unknown family: %s\n", family.c_str());
    return 1;
  }
  if (listen.empty()) {
    std::fprintf(stderr,
                 "broadcastd: --listen=tcp:PORT or --listen=unix:PATH is "
                 "required\n");
    return 1;
  }
  // Refuse a recipe every client would reject at the handshake.
  if (const char* why = wire::RecipeError(recipe)) {
    std::fprintf(stderr, "broadcastd: invalid recipe: %s\n", why);
    return 1;
  }

  transport::BroadcastDaemon daemon(recipe, pps);
  std::string error;
  if (!daemon.Listen(listen, &error)) {
    std::fprintf(stderr, "broadcastd: %s\n", error.c_str());
    return 1;
  }

  std::signal(SIGINT, HandleStop);
  std::signal(SIGTERM, HandleStop);
  daemon.Start();

  const transport::Endpoint& ep = daemon.endpoint();
  if (ep.kind == transport::Endpoint::Kind::kTcp) {
    std::printf("listening on tcp:%u\n", static_cast<unsigned>(ep.port));
  } else {
    std::printf("listening on unix:%s\n", ep.path.c_str());
  }
  std::printf("family=%u n=%u seed=%llu generations=%u coding=%u+%u pps=%g\n",
              static_cast<unsigned>(recipe.family), recipe.num_objects,
              static_cast<unsigned long long>(recipe.seed),
              recipe.num_generations, recipe.coding_group,
              recipe.coding_parity, pps);
  std::fflush(stdout);

  // Serve until a stop signal; pause() returns on any signal delivery.
  while (g_stop == 0) {
    ::pause();
  }
  std::printf("broadcastd: stop signal — finishing the current cycle\n");
  std::fflush(stdout);
  daemon.Stop();
  return 0;
}
