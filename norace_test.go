//go:build !race

package pdtstore

const raceBuild = false
