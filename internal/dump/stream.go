package dump

import (
	"encoding/json"
	"fmt"

	"cubism/internal/compress"
	"cubism/internal/mpi"
)

// Frame is one streamed compressed snapshot delivered to the sink rank:
// Data holds the complete dump-file bytes (magic, padded header, rank
// payloads in rank order), bitwise identical to what WriteCollective puts
// on disk for the same state.
type Frame struct {
	Name     string
	Step     int
	Quantity string
	Time     float64
	Data     []byte
}

// FrameSink consumes assembled frames on the sink rank.
type FrameSink func(Frame) error

// FrameRecord is the serialized frame: one line of a frame log (mpcf-sim
// -frame-log) and the payload of a job's "frame" event. Data is the full
// file image, base64 in JSON.
type FrameRecord struct {
	Name     string  `json:"name"`
	Step     int     `json:"step"`
	Quantity string  `json:"quantity"`
	Time     float64 `json:"t"`
	Bytes    int     `json:"bytes"`
	Data     []byte  `json:"data"`
}

// Record returns the frame's serialized form.
func (f Frame) Record() FrameRecord {
	return FrameRecord{Name: f.Name, Step: f.Step, Quantity: f.Quantity,
		Time: f.Time, Bytes: len(f.Data), Data: f.Data}
}

// streamChunkSize is the target payload chunk size on the wire. Chunks grow
// past it only when a payload would otherwise exceed mpi.MaxDumpParts
// messages.
const streamChunkSize = 256 << 10

// chunkSize is the wire chunk size of an n-byte payload; sender and sink
// both derive it from the size in the rank's record.
func chunkSize(n int) int {
	return max(streamChunkSize, (n+mpi.MaxDumpParts-1)/mpi.MaxDumpParts)
}

// StreamCollective ships one quantity's compressed payload from every rank
// to the sink rank (rank 0) over the dedicated TagDump channel, where the
// full dump-file image is assembled and handed to sink. All ranks must call
// it with the same seq (the caller's per-dump frame counter, which keeps
// successive frames on distinct tags). sink runs only on rank 0 and may be
// nil there (the frame is then assembled and dropped, keeping the network
// work identical). Returns the number of frame bytes this rank handled:
// record+payload sent for nonzero ranks, the assembled frame size for the
// sink.
func StreamCollective(comm *mpi.Comm, seq int, hdr Header, c *compress.Compressed, blockIDs []int64, sink FrameSink) (int64, error) {
	entry, payload := record(c, blockIDs)

	if comm.Rank() != 0 {
		meta, _ := json.Marshal(entry) // a struct of ints cannot fail to marshal
		comm.SendBytes(0, mpi.TagDump(seq, 0), meta)
		chunk := chunkSize(len(payload))
		for p, lo := 1, 0; lo < len(payload); p, lo = p+1, lo+chunk {
			comm.SendBytes(0, mpi.TagDump(seq, p), payload[lo:min(lo+chunk, len(payload))])
		}
		return int64(len(meta) + len(payload)), nil
	}

	// Sink: collect every rank's record and payload in rank order, then
	// lay out the file image exactly like the collective writer.
	entries := make([]RankEntry, comm.Size())
	payloads := make([][]byte, comm.Size())
	entries[0], payloads[0] = entry, payload
	total := entry.Size
	for r := 1; r < comm.Size(); r++ {
		e := &entries[r]
		if err := json.Unmarshal(comm.RecvBytes(r, mpi.TagDump(seq, 0)), e); err != nil {
			return 0, fmt.Errorf("dump: rank %d frame record: %v", r, err)
		}
		buf := make([]byte, 0, e.Size)
		chunk := int64(chunkSize(int(e.Size)))
		for p, lo := 1, int64(0); lo < e.Size; p, lo = p+1, lo+chunk {
			buf = append(buf, comm.RecvBytes(r, mpi.TagDump(seq, p))...)
		}
		if int64(len(buf)) != e.Size {
			return 0, fmt.Errorf("dump: rank %d frame payload %d bytes, record says %d", r, len(buf), e.Size)
		}
		payloads[r] = buf
		total += e.Size
	}
	head, err := buildHeader(&hdr, entries)
	if err != nil {
		return 0, err
	}
	data := append(make([]byte, 0, int64(len(head))+total), head...)
	for _, p := range payloads {
		data = append(data, p...)
	}
	if sink != nil {
		name := fmt.Sprintf("%s_step%06d.mpcf", hdr.Quantity, hdr.Step)
		if err := sink(Frame{Name: name, Step: hdr.Step, Quantity: hdr.Quantity, Time: hdr.Time, Data: data}); err != nil {
			return 0, err
		}
	}
	return int64(len(data)), nil
}
