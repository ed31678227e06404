package fj

// RefSimNode exports the reference lowering to the package's external
// tests, which reach the fj kernels through the registry (an import the
// package's own tests cannot make).
var RefSimNode = refSimNode
