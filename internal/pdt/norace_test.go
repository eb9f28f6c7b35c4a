//go:build !race

package pdt

const raceBuild = false
