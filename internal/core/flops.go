package core

// Analytic operation and traffic counts per kernel, the inputs to the
// perf/roofline accounting that regenerates Table 3 (operational intensity,
// naive vs reordered) and the GFLOP/s figures of Tables 5-7.
//
// The floating point counts are derived from the scalar kernel sources
// (one count per arithmetic op, fused multiply-add = 2) and checked against
// the instruction count of the AVX2 loop bodies (audit.go,
// TestFlopCountsConsistent): WENOFlops is exactly the arithmetic
// instructions of wenoRowAVX2.

// WENOFlops is the arithmetic of one wenoMinus/wenoPlus evaluation.
const WENOFlops = 69

// HLLEFlops is the arithmetic of one hlleFace evaluation (7 flux
// components + the face velocity).
const HLLEFlops = 130

// ConvFlopsPerCell is the CONV stage arithmetic per converted cell
// (conserved float32 AoS -> primitive float64 SoA via the EOS).
const ConvFlopsPerCell = 14

// SumFlopsPerCell is the SUM-stage arithmetic per cell (seven flux
// differences plus the non-conservative material terms, three directions).
const SumFlopsPerCell = 54

// BackFlopsPerCell is the BACK-stage arithmetic per cell (scale by 1/h).
const BackFlopsPerCell = 7

// faceFlops is the per-face arithmetic: 14 WENO reconstructions
// (7 quantities x minus/plus) and one HLLE flux.
const faceFlops = 14*WENOFlops + HLLEFlops

// RHSFlopsPerCell returns the total RHS arithmetic per cell for blocks of
// edge n: three directional sweeps with (n+1) faces per n cells, the
// conversion of the ghost-extended slices, the flux summation and the
// write-back.
func RHSFlopsPerCell(n int) int64 {
	faces := 3.0 * float64(n+1) / float64(n)
	ghost := ghostFactor(n)
	per := faces*faceFlops + SumFlopsPerCell + ghost*ConvFlopsPerCell + BackFlopsPerCell
	return int64(per)
}

// ghostFactor is the ratio of converted cells (block + ghost cross region)
// to interior cells.
func ghostFactor(n int) float64 {
	interior := float64(n * n * n)
	cross := interior + 6*float64(sw*n*n) // six face slabs of the cross
	return cross / interior
}

// RHSBytesPerCell returns the compulsory off-chip traffic per cell of the
// reordered (block-based) RHS: each block and its ghosts are read once
// (float32 AoS) and the result written once. This is the denominator of the
// paper's "reordered" operational intensity in Table 3.
func RHSBytesPerCell(n int) int64 {
	read := ghostFactor(n) * float64(nq) * 4
	write := float64(nq) * 4
	return int64(read + write)
}

// RHSBytesPerCellNaive returns the traffic per cell of a naive evaluation
// with no data reuse: every stencil operand of every face is fetched from
// memory (2 sides x 5 cells x 7 quantities x 3 directions, both faces of
// the cell) plus the result write. This is the "naive" row of Table 3.
func RHSBytesPerCellNaive(n int) int64 {
	perFace := 2 * 5 * nq // both sides of one face, 5-cell stencils
	reads := 3 * 2 * perFace * 4
	return int64(reads + nq*4)
}

// DTBytesPerCellNaive is the naive DT traffic: the 7 quantities re-fetched
// for each of the 4 partial results of the characteristic velocity (no
// register reuse across |u|,|v|,|w| and c).
const DTBytesPerCellNaive = 4 * nq * 4

// OperationalIntensityRHS returns FLOP/B of the reordered RHS.
func OperationalIntensityRHS(n int) float64 {
	return float64(RHSFlopsPerCell(n)) / float64(RHSBytesPerCell(n))
}

// OperationalIntensityRHSNaive returns FLOP/B of the naive RHS.
func OperationalIntensityRHSNaive(n int) float64 {
	return float64(RHSFlopsPerCell(n)) / float64(RHSBytesPerCellNaive(n))
}

// OperationalIntensityDT returns FLOP/B of the reordered DT kernel (one
// streaming read of the block).
func OperationalIntensityDT() float64 {
	return float64(SOSFlopsPerCell) / float64(SOSBytesPerCell)
}

// OperationalIntensityDTNaive returns FLOP/B of the naive DT kernel.
func OperationalIntensityDTNaive() float64 {
	return float64(SOSFlopsPerCell) / float64(DTBytesPerCellNaive)
}

// OperationalIntensityUP returns FLOP/B of the UP kernel; it is identical
// in both layouts (pure streaming), which is why Table 3 reports no gain.
func OperationalIntensityUP() float64 {
	return float64(UpdateFlopsPerValue) / float64(UpdateBytesPerValue)
}

// FusedUpdateBytesPerValue is the compulsory traffic of one UP element when
// the update is fused into the RHS BACK stage: u and reg are each read and
// written once; the rhs value passes from the accumulator through an
// L1-resident layer buffer (N² x nq float32) into UP and never round-trips
// through the block's temporary area in memory (vs. a write in BACK plus a
// read in UP for the staged path).
const FusedUpdateBytesPerValue = 4 * 4

// FusedStageFlopsPerCell returns the arithmetic per cell of one fused
// RHS+UP stage: the flop count is unchanged by fusion.
func FusedStageFlopsPerCell(n int) int64 {
	return RHSFlopsPerCell(n) + nq*UpdateFlopsPerValue
}

// FusedStageBytesPerCell returns the compulsory traffic per cell of one
// fused RHS+UP stage: the RHS traffic minus the rhs write-back, plus the
// fused update traffic. Compared with the staged RHSBytesPerCell +
// nq·UpdateBytesPerValue, fusion saves 2·nq·4 bytes per cell (the rhs
// write and its re-read).
func FusedStageBytesPerCell(n int) int64 {
	return RHSBytesPerCell(n) - nq*4 + nq*FusedUpdateBytesPerValue
}

// OperationalIntensityFused returns FLOP/B of the fused RHS+UP stage.
func OperationalIntensityFused(n int) float64 {
	return float64(FusedStageFlopsPerCell(n)) / float64(FusedStageBytesPerCell(n))
}
