package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"multiscalar/internal/isa"
	"multiscalar/internal/tfg"
)

// On-disk columnar trace format ("MSTC" v1).
//
// The stream is a 16-byte file header followed by self-contained blocks
// and a zero sentinel:
//
//	header  { magic "MSTC" u32le, version u32le, blockSteps u32le, reserved u32le }
//	block*  { payloadLen u32le, n u32le, crc32(payload) u32le } payload
//	sentinel{ 0, 0, 0 }
//
// Each block's payload carries its own dictionary additions followed by
// the three step columns:
//
//	nNew    uvarint                      — dictionary entries first used here
//	addr*   nNew × uvarint               — the new addresses, first-use order
//	taskLen uvarint                      — byte length of the task column
//	task    per step: zigzag varint of taskIdx delta (prev starts at 0)
//	exit    per step: one byte, exit+1 (0 = halt, legal only on the
//	        stream's final step)
//	target  per non-halt step: zigzag varint of targetIdx − ref, where ref
//	        is the next step's taskIdx (the taken target usually IS the
//	        next task, so this column is almost all zero bytes); the
//	        block's last step uses its own taskIdx as ref
//
// Blocks hold exactly blockSteps steps except the last. Because
// dictionary additions ride with the block that first needs them, a
// reader can decode strictly sequentially with bounded memory; because
// lengths, counts and a CRC frame every block, a reader can reject
// corruption and distinguish truncation (ErrTruncated) from damage
// (ErrCorrupt) without trusting any on-disk value for allocation sizes.
const (
	colMagic   = 0x4d535443 // "MSTC" little-endian
	colVersion = 1

	// maxBlockSteps bounds the blockSteps header field: the decoder
	// allocates column buffers of this many entries, so an adversarial
	// header cannot demand unbounded memory.
	maxBlockSteps = 1 << 20
)

// Typed columnar decode errors. Callers distinguish a stream that ended
// early (retryable: the producer may still be writing) from one whose
// bytes are wrong.
var (
	// ErrTruncated marks a stream that ends mid-header, mid-payload, or
	// before the terminating sentinel.
	ErrTruncated = errors.New("trace: truncated columnar stream")
	// ErrCorrupt marks a structurally invalid stream: bad magic, absurd
	// counts, CRC mismatch, or columns inconsistent with themselves or
	// the bound graph.
	ErrCorrupt = errors.New("trace: corrupt columnar stream")
)

// colPayloadCap bounds a plausible payload size for n steps: ≤2n new
// dictionary addresses at ≤5 varint bytes, ≤3 bytes per task delta and
// target delta, 1 exit byte per step, plus framing varints.
func colPayloadCap(n int) int { return 20*n + 32 }

func zigzag(d int) uint64 {
	return uint64((uint32(d) << 1) ^ uint32(d>>31))
}

func unzigzag(u uint64) int {
	return int(int32(uint32(u)>>1) ^ -int32(u&1))
}

// appendBlockPayload encodes one block's payload: the dictionary entries
// in dict[emitted:] first used by this block and the block's three step
// columns. It also returns the new emitted count: one past the highest
// dictionary index written so far.
func appendBlockPayload(buf []byte, dict []DictEntry, emitted int, taskIdx []uint16, exits []int8, targetIdx []uint16) ([]byte, int) {
	maxIdx := emitted - 1
	for i, ti := range taskIdx {
		if int(ti) > maxIdx {
			maxIdx = int(ti)
		}
		if exits[i] != HaltExit && int(targetIdx[i]) > maxIdx {
			maxIdx = int(targetIdx[i])
		}
	}
	buf = binary.AppendUvarint(buf, uint64(maxIdx+1-emitted))
	for _, e := range dict[emitted : maxIdx+1] {
		buf = binary.AppendUvarint(buf, uint64(e.Addr))
	}

	var taskCol []byte
	prev := 0
	for _, ti := range taskIdx {
		taskCol = binary.AppendUvarint(taskCol, zigzag(int(ti)-prev))
		prev = int(ti)
	}
	buf = binary.AppendUvarint(buf, uint64(len(taskCol)))
	buf = append(buf, taskCol...)

	for _, e := range exits {
		buf = append(buf, byte(e+1))
	}

	n := len(exits)
	for i := 0; i < n; i++ {
		if exits[i] == HaltExit {
			continue
		}
		ref := taskIdx[i]
		if i+1 < n {
			ref = taskIdx[i+1]
		}
		buf = binary.AppendUvarint(buf, zigzag(int(targetIdx[i])-int(ref)))
	}
	return buf, maxIdx + 1
}

// framer writes the MSTC framing: the file header, one framed block per
// call, and the sentinel. It is the only encoder of the format; Writer
// and Columnar.Encode both go through it.
type framer struct {
	w       io.Writer
	emitted int // dictionary entries already written
	buf     []byte
}

// newFramer writes the stream header.
func newFramer(w io.Writer) (*framer, error) {
	var hdr [16]byte
	binary.LittleEndian.PutUint32(hdr[0:], colMagic)
	binary.LittleEndian.PutUint32(hdr[4:], colVersion)
	binary.LittleEndian.PutUint32(hdr[8:], BlockSteps)
	if _, err := w.Write(hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: write columnar header: %w", err)
	}
	return &framer{w: w}, nil
}

// block writes one framed block of parallel step columns, carrying the
// dictionary entries it is the first to use.
func (f *framer) block(dict []DictEntry, taskIdx []uint16, exits []int8, targetIdx []uint16) error {
	f.buf, f.emitted = appendBlockPayload(f.buf[:0], dict, f.emitted, taskIdx, exits, targetIdx)
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(f.buf)))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(exits)))
	binary.LittleEndian.PutUint32(hdr[8:], crc32.ChecksumIEEE(f.buf))
	if _, err := f.w.Write(hdr[:]); err != nil {
		return fmt.Errorf("trace: write block header: %w", err)
	}
	if _, err := f.w.Write(f.buf); err != nil {
		return fmt.Errorf("trace: write block payload: %w", err)
	}
	return nil
}

// close writes the terminating sentinel.
func (f *framer) close() error {
	var sentinel [12]byte
	if _, err := f.w.Write(sentinel[:]); err != nil {
		return fmt.Errorf("trace: write sentinel: %w", err)
	}
	return nil
}

// Writer streams a columnar trace to an io.Writer block by block. It
// holds at most one block of column data at a time, so a generator can
// pipe an arbitrarily long trace to disk in constant memory:
//
//	w, _ := trace.NewWriter(f, g)
//	for each segment { w.Append(seg.Steps) }
//	w.Close()
type Writer struct {
	f   *framer
	enc *Encoder
	err error
}

// NewWriter writes the stream header and returns a block writer bound to
// graph (nil for structural-only streams).
func NewWriter(w io.Writer, g *tfg.Graph) (*Writer, error) {
	f, err := newFramer(w)
	if err != nil {
		return nil, err
	}
	return &Writer{f: f, enc: NewEncoder(g)}, nil
}

// Append encodes a batch of steps, flushing every completed block. Batch
// boundaries need not align with blocks.
func (cw *Writer) Append(steps []Step) error {
	if cw.err != nil {
		return cw.err
	}
	if err := cw.enc.Append(steps); err != nil {
		cw.err = err
		return err
	}
	for len(cw.enc.exits) >= BlockSteps {
		if err := cw.flushBlock(BlockSteps); err != nil {
			return err
		}
	}
	return nil
}

// flushBlock writes the first n buffered steps as one block and shifts
// the encoder's columns down.
func (cw *Writer) flushBlock(n int) error {
	e := cw.enc
	if err := cw.f.block(e.dict.Entries, e.taskIdx[:n], e.exits[:n], e.targetIdx[:n]); err != nil {
		cw.err = err
		return err
	}
	e.taskIdx = e.taskIdx[:copy(e.taskIdx, e.taskIdx[n:])]
	e.exits = e.exits[:copy(e.exits, e.exits[n:])]
	e.targetIdx = e.targetIdx[:copy(e.targetIdx, e.targetIdx[n:])]
	return nil
}

// Close flushes any partial final block and writes the sentinel. The
// writer is unusable afterwards.
func (cw *Writer) Close() error {
	if cw.err != nil {
		return cw.err
	}
	if n := len(cw.enc.exits); n > 0 {
		if err := cw.flushBlock(n); err != nil {
			return err
		}
	}
	if err := cw.f.close(); err != nil {
		cw.err = err
		return err
	}
	cw.err = errors.New("trace: Writer closed")
	return nil
}

// Encode streams the whole columnar trace in on-disk framing.
func (c *Columnar) Encode(w io.Writer) error {
	f, err := newFramer(w)
	if err != nil {
		return err
	}
	for lo := 0; lo < c.Len(); lo += BlockSteps {
		hi := min(lo+BlockSteps, c.Len())
		if err := f.block(c.Dict.Entries, c.taskIdx[lo:hi], c.exits[lo:hi], c.targetIdx[lo:hi]); err != nil {
			return err
		}
	}
	return f.close()
}

// Reader decodes a columnar stream block by block, implementing
// BlockSource over a file the way Cursor does over memory. Column
// buffers are reused across blocks; a yielded Block is valid only until
// the next NextBlock call. Memory use is bounded by the header's
// blockSteps regardless of stream length or corruption.
type Reader struct {
	r          io.Reader
	g          *tfg.Graph
	dict       *Dict
	blockSteps int
	blk        Block
	payload    []byte
	halted     bool // the last decoded step was a halt
	done       bool
	err        error
}

// NewReader validates the stream header and returns a block reader. A
// nil graph decodes structurally (no task binding, range checks only) —
// the mode the fuzzer drives.
func NewReader(r io.Reader, g *tfg.Graph) (*Reader, error) {
	var hdr [16]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: columnar header: %w", ErrTruncated)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != colMagic {
		return nil, fmt.Errorf("trace: bad magic: %w", ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != colVersion {
		return nil, fmt.Errorf("trace: columnar version %d: %w", v, ErrCorrupt)
	}
	bs := binary.LittleEndian.Uint32(hdr[8:])
	if bs == 0 || bs > maxBlockSteps {
		return nil, fmt.Errorf("trace: blockSteps %d: %w", bs, ErrCorrupt)
	}
	return &Reader{r: r, g: g, dict: &Dict{}, blockSteps: int(bs)}, nil
}

// NextBlock implements BlockSource: it returns the next decoded block,
// (nil, nil) after the sentinel, ErrTruncated if the stream ends early,
// or ErrCorrupt if the bytes are invalid, including a halt step anywhere
// but at the end of the stream.
func (cr *Reader) NextBlock() (*Block, error) {
	if cr.err != nil {
		return nil, cr.err
	}
	if cr.done {
		return nil, nil
	}
	var hdr [12]byte
	if _, err := io.ReadFull(cr.r, hdr[:]); err != nil {
		cr.err = fmt.Errorf("trace: block header: %w", ErrTruncated)
		return nil, cr.err
	}
	payloadLen := int(binary.LittleEndian.Uint32(hdr[0:]))
	n := int(binary.LittleEndian.Uint32(hdr[4:]))
	crc := binary.LittleEndian.Uint32(hdr[8:])
	if payloadLen == 0 && n == 0 && crc == 0 {
		cr.done = true
		return nil, nil
	}
	if cr.halted {
		cr.err = fmt.Errorf("trace: block after a halt step: %w", ErrCorrupt)
		return nil, cr.err
	}
	if n <= 0 || n > cr.blockSteps {
		cr.err = fmt.Errorf("trace: block of %d steps (max %d): %w", n, cr.blockSteps, ErrCorrupt)
		return nil, cr.err
	}
	// The payload bound is derived from the validated step count, never
	// from the on-disk length alone: a huge payloadLen is rejected before
	// any allocation.
	if payloadLen <= 0 || payloadLen > colPayloadCap(n) {
		cr.err = fmt.Errorf("trace: block payload %dB for %d steps: %w", payloadLen, n, ErrCorrupt)
		return nil, cr.err
	}
	if cap(cr.payload) < payloadLen {
		cr.payload = make([]byte, payloadLen)
	}
	cr.payload = cr.payload[:payloadLen]
	if _, err := io.ReadFull(cr.r, cr.payload); err != nil {
		cr.err = fmt.Errorf("trace: block payload: %w", ErrTruncated)
		return nil, cr.err
	}
	if got := crc32.ChecksumIEEE(cr.payload); got != crc {
		cr.err = fmt.Errorf("trace: block crc %08x != %08x: %w", got, crc, ErrCorrupt)
		return nil, cr.err
	}
	if err := cr.decodeBlock(cr.payload, n); err != nil {
		cr.err = err
		return nil, cr.err
	}
	return &cr.blk, nil
}

// decodeBlock decodes a CRC-validated payload into the reused block.
func (cr *Reader) decodeBlock(p []byte, n int) error {
	nNew, k := binary.Uvarint(p)
	if k <= 0 {
		return fmt.Errorf("trace: block dict count: %w", ErrCorrupt)
	}
	p = p[k:]
	// Each new entry costs ≥1 payload byte, so nNew is already bounded
	// by the validated payload size; the dict cap bounds the total.
	if nNew > uint64(DictLimit-len(cr.dict.Entries)) {
		return fmt.Errorf("trace: dictionary past %d entries: %w", DictLimit, ErrCorrupt)
	}
	for i := 0; i < int(nNew); i++ {
		a, k := binary.Uvarint(p)
		if k <= 0 || a > uint64(^isa.Addr(0)) {
			return fmt.Errorf("trace: block dict address: %w", ErrCorrupt)
		}
		p = p[k:]
		cr.dict.Entries = append(cr.dict.Entries, newDictEntry(cr.g, isa.Addr(a)))
	}
	dictLen := len(cr.dict.Entries)

	if cap(cr.blk.TaskIdx) < n {
		cr.blk.TaskIdx = make([]uint16, n)
		cr.blk.Exits = make([]int8, n)
		cr.blk.TargetIdx = make([]uint16, n)
	}
	taskIdx := cr.blk.TaskIdx[:n]
	exits := cr.blk.Exits[:n]
	targetIdx := cr.blk.TargetIdx[:n]

	taskLen, k := binary.Uvarint(p)
	if k <= 0 || taskLen > uint64(len(p)-k) {
		return fmt.Errorf("trace: task column length: %w", ErrCorrupt)
	}
	p = p[k:]
	taskCol, rest := p[:taskLen], p[taskLen:]
	prev := 0
	for i := 0; i < n; i++ {
		u, k := binary.Uvarint(taskCol)
		if k <= 0 {
			return fmt.Errorf("trace: task column: %w", ErrCorrupt)
		}
		taskCol = taskCol[k:]
		prev += unzigzag(u)
		if prev < 0 || prev >= dictLen {
			return fmt.Errorf("trace: task index %d of %d: %w", prev, dictLen, ErrCorrupt)
		}
		taskIdx[i] = uint16(prev)
	}
	if len(taskCol) != 0 {
		return fmt.Errorf("trace: task column trailing bytes: %w", ErrCorrupt)
	}

	if len(rest) < n {
		return fmt.Errorf("trace: exit column: %w", ErrCorrupt)
	}
	exitCol, targetCol := rest[:n], rest[n:]
	for i := 0; i < n; i++ {
		e := int8(exitCol[i]) - 1
		if e < HaltExit || int(e) >= tfg.MaxExits {
			return fmt.Errorf("trace: exit byte %d: %w", exitCol[i], ErrCorrupt)
		}
		if e == HaltExit {
			if i != n-1 {
				return fmt.Errorf("trace: halt at block step %d of %d: %w", i, n, ErrCorrupt)
			}
		} else if cr.g != nil {
			ent := &cr.dict.Entries[taskIdx[i]]
			if ent.Task == nil || int(e) >= int(ent.NumExits) {
				return fmt.Errorf("trace: step @%d exit %d inconsistent with graph: %w", ent.Addr, e, ErrCorrupt)
			}
		}
		exits[i] = e
	}

	for i := 0; i < n; i++ {
		if exits[i] == HaltExit {
			targetIdx[i] = 0
			continue
		}
		u, k := binary.Uvarint(targetCol)
		if k <= 0 {
			return fmt.Errorf("trace: target column: %w", ErrCorrupt)
		}
		targetCol = targetCol[k:]
		ref := int(taskIdx[i])
		if i+1 < n {
			ref = int(taskIdx[i+1])
		}
		gi := ref + unzigzag(u)
		if gi < 0 || gi >= dictLen {
			return fmt.Errorf("trace: target index %d of %d: %w", gi, dictLen, ErrCorrupt)
		}
		targetIdx[i] = uint16(gi)
	}
	if len(targetCol) != 0 {
		return fmt.Errorf("trace: target column trailing bytes: %w", ErrCorrupt)
	}

	cr.halted = exits[n-1] == HaltExit
	cr.blk.N = n
	cr.blk.TaskIdx = taskIdx
	cr.blk.Exits = exits
	cr.blk.TargetIdx = targetIdx
	cr.blk.Dict = cr.dict
	return nil
}

// ReadColumnar decodes a whole columnar stream into memory. A stream
// longer than maxSteps steps is rejected as ErrCorrupt before its excess
// is buffered (0 means no limit); an invalid stream returns ErrTruncated
// or ErrCorrupt.
func ReadColumnar(r io.Reader, g *tfg.Graph, maxSteps int) (*Columnar, error) {
	cr, err := NewReader(r, g)
	if err != nil {
		return nil, err
	}
	c := &Columnar{Graph: g, Dict: cr.dict}
	for {
		b, err := cr.NextBlock()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return c, nil
		}
		if maxSteps > 0 && c.Len()+b.N > maxSteps {
			return nil, fmt.Errorf("trace: columnar stream past %d steps: %w", maxSteps, ErrCorrupt)
		}
		c.taskIdx = append(c.taskIdx, b.TaskIdx...)
		c.exits = append(c.exits, b.Exits...)
		c.targetIdx = append(c.targetIdx, b.TargetIdx...)
	}
}
