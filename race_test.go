//go:build race

package pdtstore

// raceBuild shrinks the small-scope check under the race detector to its
// -short scope.
const raceBuild = true
