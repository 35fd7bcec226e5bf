package mat

// setUseAsm forces the kernel dispatch for tests and returns the
// previous value. On non-amd64 builds useAsm is a constant false and
// the force is a no-op.
func setUseAsm(on bool) (prev bool) { return swapUseAsm(on) }

// PoolBudget is the free-list byte bound, for the external tests that
// drive the shared pool through the learners.
const PoolBudget = poolBudget
