//go:build amd64 && !purego

package gemm

// cpuidex and xgetbv0 are the two-instruction stubs in cpuid_amd64.s —
// the stdlib-only replacement for a cpu-feature dependency.
func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax, edx uint32)

// packedRowFMA is the AVX2/FMA microkernel in pack_amd64.s: it adds one
// A-row × packed-B-panel product into a C row, 16 columns (two YMM
// registers) per pass, and applies the fused epilogue to each 16-column
// tile while it is register-resident. ai points at the row's kc-long
// k-slab, bp at the first panel element of the first column to process,
// ci at the matching C element; cols (a multiple of 16) is how many
// columns to update and ldb the panel's row stride. r and bias likewise
// point at the first element their epilogue reads, and may be nil when
// epi reads neither.
//
// The //dnn:hotpath annotation is declarative here: hotpathalloc and
// the BCE guard both exempt bodyless (assembly) declarations by
// construction — there is no Go body to audit — so the hot-loop
// contract for this kernel is enforced by the differential fuzz and
// the benchmark's gemm.square_gflops instead of by lint.
//
//dnn:hotpath
//go:noescape
func packedRowFMA(ai *float32, kc int, bp, ci *float32, cols, ldb, epi int, r, bias *float32)

// simdAvailable reports CPU+OS support for the AVX2/FMA microkernel,
// detected once at startup.
func simdAvailable() bool { return hasAVX2FMA }

var hasAVX2FMA = detectAVX2FMA()

// detectAVX2FMA is the textbook runtime feature check: FMA3 and AVX
// with OSXSAVE on leaf 1, YMM (and XMM) state enabled in XCR0, and AVX2
// on leaf 7 — all four must hold before the kernel's VEX-256 FMA
// instructions are safe to execute.
func detectAVX2FMA() bool {
	maxLeaf, _, _, _ := cpuidex(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const (
		fma     = 1 << 12 // CPUID.1:ECX.FMA
		osxsave = 1 << 27 // CPUID.1:ECX.OSXSAVE — XGETBV is usable
		avx     = 1 << 28 // CPUID.1:ECX.AVX
	)
	_, _, ecx1, _ := cpuidex(1, 0)
	if ecx1&(fma|osxsave|avx) != fma|osxsave|avx {
		return false
	}
	// XCR0 bits 1 (SSE/XMM) and 2 (AVX/YMM): the OS context-switches
	// the registers the kernel clobbers.
	xlo, _ := xgetbv0()
	if xlo&0x6 != 0x6 {
		return false
	}
	_, ebx7, _, _ := cpuidex(7, 0)
	const avx2 = 1 << 5 // CPUID.7.0:EBX.AVX2
	return ebx7&avx2 != 0
}
