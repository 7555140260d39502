package mpi

import (
	"fmt"
	"os"
)

// Tag namespaces. Collectives, ghost exchange and the dump streams used to
// share one flat integer tag space, which worked only because the literal
// constants happened not to collide — a latent bug the moment a new
// subsystem picked an overlapping number. Tags now carry their class in
// the high byte (below transport.TagReserved = 0xFF000000, which the
// transport keeps for control frames), with class-specific payload bits
// beneath:
//
//	(0x01, the retired per-face ghost class, is unused)
//	coll:    0x02 | seq&0xFFFF    (per-rank collective sequence number)
//	stream:  0x03 | n             (side channel n: net benchmark, observatory)
//	ghostB:  0x04 | block | face | stage  (per-block halo messages of the
//	         layout-general exchange: block id in bits 5..23, face in bits
//	         2..4, RK stage in bits 0..1)
//	migrate: 0x05 | block         (whole-block state transfers during a
//	         rebalance, outside any halo epoch)
//	dump:    0x06 | seq | part    (compressed-frame streaming to the sink
//	         rank: frame sequence in bits 8..23, part in bits 0..7 with
//	         part 0 the metadata message and 1..255 the payload chunks)
const (
	classColl    = 0x02 << 24
	classStream  = 0x03 << 24
	classGhostB  = 0x04 << 24
	classMigrate = 0x05 << 24
	classDump    = 0x06 << 24

	classMask = 0xFF << 24
)

// TagGhostBlock returns the tag of the halo message feeding the given face
// of the given block (canonical linear id) at the given RK stage, so a rank
// that exchanges several blocks with the same peer across one face
// direction keeps the messages apart. The block id
// is bounded at 2^19 global blocks (production: 32³ = 2^15).
func TagGhostBlock(block int64, face, stage int) int {
	if block < 0 || block >= 1<<19 || face < 0 || face > 5 || stage < 0 || stage > 3 {
		panic(fmt.Sprintf("mpi: ghost block tag out of range (block %d, face %d, stage %d)", block, face, stage))
	}
	return classGhostB | int(block)<<5 | face<<2 | stage
}

// TagMigrate returns the tag carrying the full state of the given block
// (canonical linear id) from its old owner to its new one during a layout
// rebalance. Migration happens between halo epochs, so the namespace only
// needs to be unique per block.
func TagMigrate(block int64) int {
	if block < 0 || block >= 1<<24 {
		panic(fmt.Sprintf("mpi: migrate tag out of range (block %d)", block))
	}
	return classMigrate | int(block)
}

// MaxDumpParts bounds the payload chunk count of one streamed frame.
const MaxDumpParts = 0xFF

// TagDump returns the tag of one message of streamed compressed frame seq
// (wrapped to 16 bits): part 0 carries the rank's metadata, parts 1..255
// the payload chunks. The sequence number keeps successive frames on
// distinct (dst, tag) pairs even when several quantities dump in the same
// tag epoch.
func TagDump(seq, part int) int {
	if part < 0 || part > MaxDumpParts {
		panic(fmt.Sprintf("mpi: dump part out of range (%d)", part))
	}
	return classDump | (seq&0xFFFF)<<8 | part
}

// TagStream returns the tag for point-to-point side channel n (the net
// benchmark uses 1..4, the observatory its own range).
func TagStream(n int) int {
	if n < 0 || n > 0xFFFF {
		panic(fmt.Sprintf("mpi: stream tag out of range (%d)", n))
	}
	return classStream | n
}

// TagColl returns the tag for the collective with the given per-rank
// sequence number (internal; exported for the conformance tests).
func TagColl(seq uint64) int { return classColl | int(seq&0xFFFF) }

// Observatory channels sit at the top of the stream namespace, far above
// the net-bench channels (1..4): telemetry
// batches ride one channel, and the clock-sync ping-pong uses one channel
// pair per sample index so a sync burst never reuses a (dst, tag) pair
// within a tag epoch.
const (
	obsBatchChannel = 0xF000
	obsPingChannel  = 0xF100
	obsPongChannel  = 0xF200

	// ObsMaxSyncSamples bounds the per-burst clock-sync sample count.
	ObsMaxSyncSamples = 0x100
)

// TagObsBatch returns the tag carrying observatory telemetry batches from a
// rank to the collector on rank 0.
func TagObsBatch() int { return TagStream(obsBatchChannel) }

// TagObsPing returns the root-to-peer tag of clock-sync sample k.
func TagObsPing(k int) int {
	if k < 0 || k >= ObsMaxSyncSamples {
		panic(fmt.Sprintf("mpi: clock-sync sample index out of range (%d)", k))
	}
	return TagStream(obsPingChannel + k)
}

// TagObsPong returns the peer-to-root reply tag of clock-sync sample k.
func TagObsPong(k int) int {
	if k < 0 || k >= ObsMaxSyncSamples {
		panic(fmt.Sprintf("mpi: clock-sync sample index out of range (%d)", k))
	}
	return TagStream(obsPongChannel + k)
}

// tagCheckEnv is MPCF_TAGCHECK=1, read once at start-up: every new Comm
// takes it as its Comm.tagCheck.
var tagCheckEnv = os.Getenv("MPCF_TAGCHECK") == "1"

// BeginTagEpoch opens a new tag epoch for this rank: the reuse assertion
// forgets all (dst, tag) pairs seen so far. The cluster layer calls it at
// the top of each ghost exchange, making the epoch one halo cycle.
func (c *Comm) BeginTagEpoch() {
	if c.tagSeen != nil {
		clear(c.tagSeen)
	}
}

// checkTag asserts, when enabled, that (dst, tag) was not already used for
// a send in this epoch. Collective tags are exempt: they are versioned by
// the sequence number, so reuse across epochs is by construction safe, and
// their cadence is not tied to the ghost-exchange epoch.
func (c *Comm) checkTag(dst, tag int) {
	if !c.tagCheck || tag&classMask == classColl {
		return
	}
	if c.tagSeen == nil {
		c.tagSeen = make(map[uint64]struct{})
	}
	key := uint64(dst)<<32 | uint64(uint32(tag))
	if _, dup := c.tagSeen[key]; dup {
		panic(fmt.Sprintf("mpi: rank %d reused tag %#x for a send to rank %d within one epoch; "+
			"a second in-flight message on the same (dst, tag) pair can be matched out of intent "+
			"(call BeginTagEpoch at phase boundaries, or namespace the tag)", c.rank, tag, dst))
	}
	c.tagSeen[key] = struct{}{}
}
