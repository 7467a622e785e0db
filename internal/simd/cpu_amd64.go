//go:build amd64 && !purego

package simd

// CPUID and XGETBV feature bits the vector bodies need.
const (
	cpuid1ECXFMA     = 1 << 12
	cpuid1ECXOSXSAVE = 1 << 27
	cpuid1ECXAVX     = 1 << 28
	cpuid7EBXAVX2    = 1 << 5
	xcr0XMMYMM       = 1<<1 | 1<<2 // the OS saves XMM and YMM state
)

var avx2fma = probe()

// probe reads CPUID.1:ECX for FMA, OSXSAVE and AVX, XGETBV(0) for the XMM
// and YMM state bits, and CPUID.7.0:EBX for AVX2.
func probe() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const want1 = cpuid1ECXFMA | cpuid1ECXOSXSAVE | cpuid1ECXAVX
	if ecx1&want1 != want1 {
		return false
	}
	// XGETBV faults unless OSXSAVE is set, so it runs only after the
	// check above.
	if xcr0, _ := xgetbv(); xcr0&xcr0XMMYMM != xcr0XMMYMM {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&cpuid7EBXAVX2 != 0
}

// cpuid executes CPUID with EAX = leaf and ECX = sub.
//
//go:noescape
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv executes XGETBV with ECX = 0 and returns XCR0.
//
//go:noescape
func xgetbv() (eax, edx uint32)
