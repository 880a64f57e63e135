#include <memory>

void
runDecodeStepInto(Ctx &ctx)
{
  auto ws = std::make_unique<Workspace>();
  // softrec-lint: allow(hot-path-alloc)
  auto once = std::make_unique<Workspace>();
  ctx.use(ws.get(), once.get());
}

void
setupOnce(Ctx &ctx)
{
  auto ws = std::make_unique<Workspace>();
  ctx.use(ws.get());
}

template <typename StoreKv>
void
runLayer(Workspace &ws, const StoreKv &store_kv)
{
  ws.scratch.resize(ws.rows);
  store_kv(ws);
}
