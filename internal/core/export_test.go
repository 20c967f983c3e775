package core

// The reference model (specref_test.go), exported to the external
// core_test package, whose tests can build predictors from engine spec
// strings (package core cannot import the engine: it imports core).
var (
	ReferenceExitSpec = referenceExitSpec
	ReferenceTaskSpec = referenceTaskSpec
)
