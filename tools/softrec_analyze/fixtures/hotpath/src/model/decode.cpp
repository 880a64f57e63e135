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

// Cold helper: resizing the caller's buffer stays silent.
void
sliceHeadInto(const Tensor &x, int64_t head, Tensor &out)
{
  out.resize(Shape({x.rows(), head}));
}

void
attendOwnRows(Ctx &ctx, Workspace &ws)
{
  Tensor<Half> head_out(Shape({ws.rows, 64}));
  runAttention(ctx, ws.q, head_out);
}

// The per-slot workspace form stays silent.
void
attendOwnRows(Ctx &ctx, Workspace &ws, int64_t slot)
{
  OwnRowsSlot &s = ws.ownRows[size_t(slot)];
  sliceHeadInto(ws.q, 0, s.head.q);
  runAttention(ctx, s.head, s.attn, s.out);
}
