//go:build !amd64 || purego

package simd

// avx2fma is off in a portable build.
const avx2fma = false
