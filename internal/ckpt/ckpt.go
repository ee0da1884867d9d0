// Package ckpt snapshots full training state — parameters, momentum
// velocities, the data cursor, the executed plan, and the iteration
// count — in a CANONICAL UNSHARDED representation: whatever plan a run
// executes, shards gather into full tensors at checkpoint time and
// re-shard at restore, so a checkpoint written under data:8 restores
// under df:4x2 (or any other plan) bit-for-bit. That one invariant is
// what makes elastic recovery and live plan migration a single code
// path in internal/dist.
//
// Wire format (all integers little-endian):
//
//	magic   "PDLCKPT1"                      8 bytes
//	hlen    uint32                          JSON header length
//	header  JSON                            metadata + tensor directory
//	payload float64 LE values               losses, then directory order
//	sum     SHA-256                         over every preceding byte
//
// The header's tensor directory fixes the payload order: losses first,
// then per directory entry (layer ascending, params before velocities,
// fields in W, B, Gamma, Beta order) the tensor's row-major values.
// Load verifies the checksum before parsing anything, so a truncated
// or corrupted file always fails loudly — never a silent resume from
// torn state. Save writes through a temp file and renames, so a crash
// mid-write never clobbers the previous checkpoint.
package ckpt

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"

	"paradl/internal/nn"
	"paradl/internal/tensor"
)

// State is one canonical training snapshot: everything a fresh world —
// of any size, under any plan — needs to continue the run as if it had
// never stopped. Params holds the full unsharded parameters per layer;
// Vel the matching momentum velocities (nil when the run uses plain
// SGD; individual nil tensors mean a zero velocity). Iter counts
// completed iterations, so a resume trains batches[Iter:], and Cursor
// is the dataset cursor of the next batch (equal to Iter for the
// sequential cursor-addressed datasets of internal/data).
type State struct {
	Model    string
	Plan     string
	Iter     int
	Seed     int64
	LR       float64
	Momentum float64
	Cursor   int
	// Streams records every named deterministic RNG/data stream the run
	// consumes and the next position each will draw — today the data
	// cursor, tomorrow dropout/augmentation streams — so a stochastic
	// layer added later resumes bit-identically instead of re-deriving
	// its stream from ambient state. Version-1 checkpoints predate the
	// field and decode with Streams nil.
	Streams []Stream
	Losses  []float64
	Params  []nn.Params
	Vel     []nn.Params
}

// Stream is one named deterministic stream position: the seed that
// parameterizes the stream and the next index it will consume. Two
// runs holding equal (Seed, Next) draw identical continuations.
type Stream struct {
	Name string `json:"name"`
	Seed int64  `json:"seed"`
	Next int64  `json:"next"`
}

// Stream returns the recorded position of the named stream, or false
// when the checkpoint predates stream recording (version-1 files) or
// never tracked it.
func (s *State) Stream(name string) (Stream, bool) {
	for _, st := range s.Streams {
		if st.Name == name {
			return st, true
		}
	}
	return Stream{}, false
}

const magic = "PDLCKPT1"

// version is the header revision Encode writes. Decode accepts every
// revision in [1, version]: version 2 added the Streams directory (a
// header-only JSON field), so version-1 payload geometry is unchanged
// and old files load with Streams nil.
const version = 2

// maxLayers bounds a header's layer count. Decode allocates one
// nn.Params per layer, and a layer without parameters costs the payload
// no bytes, so the file length cannot bound it; real models have
// hundreds of layers.
const maxLayers = 1 << 16

// header is the JSON metadata block; the float64 series (losses and
// tensor values) live in the binary payload, never in JSON, so decode
// is bit-exact by construction rather than by strconv round-tripping.
type header struct {
	Version  int        `json:"version"`
	Model    string     `json:"model"`
	Plan     string     `json:"plan"`
	Iter     int        `json:"iter"`
	Seed     int64      `json:"seed"`
	LR       float64    `json:"lr"`
	Momentum float64    `json:"momentum"`
	Cursor   int        `json:"cursor"`
	Streams  []Stream   `json:"streams,omitempty"` // since version 2
	NLosses  int        `json:"nlosses"`
	NLayers  int        `json:"nlayers"`
	Dir      []dirEntry `json:"dir"`
}

// dirEntry describes one tensor of the payload: its layer, field
// ("W"|"B"|"Gamma"|"Beta"), kind ("param"|"vel"), and shape.
type dirEntry struct {
	Layer int    `json:"l"`
	Field string `json:"f"`
	Kind  string `json:"k"`
	Shape []int  `json:"shape"`
}

var fieldOrder = []string{"W", "B", "Gamma", "Beta"}

func fieldOf(p *nn.Params, f string) **tensor.Tensor {
	switch f {
	case "W":
		return &p.W
	case "B":
		return &p.B
	case "Gamma":
		return &p.Gamma
	case "Beta":
		return &p.Beta
	}
	return nil
}

// Encode renders s in the stable wire format.
func (s *State) Encode() ([]byte, error) {
	if len(s.Vel) != 0 && len(s.Vel) != len(s.Params) {
		return nil, fmt.Errorf("ckpt: %d velocity layers vs %d parameter layers", len(s.Vel), len(s.Params))
	}
	h := header{
		Version: version, Model: s.Model, Plan: s.Plan, Iter: s.Iter,
		Seed: s.Seed, LR: s.LR, Momentum: s.Momentum, Cursor: s.Cursor,
		Streams: s.Streams,
		NLosses: len(s.Losses), NLayers: len(s.Params),
	}
	var tensors []*tensor.Tensor
	collect := func(layers []nn.Params, kind string) {
		for l := range layers {
			for _, f := range fieldOrder {
				t := *fieldOf(&layers[l], f)
				if t == nil {
					continue
				}
				h.Dir = append(h.Dir, dirEntry{Layer: l, Field: f, Kind: kind, Shape: t.Shape()})
				tensors = append(tensors, t)
			}
		}
	}
	collect(s.Params, "param")
	collect(s.Vel, "vel")

	hdr, err := json.Marshal(h)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	buf.WriteString(magic)
	var hlen [4]byte
	binary.LittleEndian.PutUint32(hlen[:], uint32(len(hdr)))
	buf.Write(hlen[:])
	buf.Write(hdr)
	writeFloats(&buf, s.Losses)
	for _, t := range tensors {
		writeFloats(&buf, t.Data())
	}
	sum := sha256.Sum256(buf.Bytes())
	buf.Write(sum[:])
	return buf.Bytes(), nil
}

func writeFloats(buf *bytes.Buffer, xs []float64) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		buf.Write(b[:])
	}
}

// Decode parses a wire-format checkpoint. The SHA-256 trailer is
// verified over every preceding byte BEFORE any field is read, and the
// declared geometry must account for the file length exactly, so
// truncation, bit flips, and appended garbage all fail loudly; a
// re-sealed header whose counts the payload does not back is an error
// too, never a panic or an unbounded allocation.
func Decode(b []byte) (*State, error) {
	const trailer = sha256.Size
	if len(b) < len(magic)+4+trailer {
		return nil, fmt.Errorf("ckpt: %d bytes is shorter than any checkpoint", len(b))
	}
	if string(b[:len(magic)]) != magic {
		return nil, fmt.Errorf("ckpt: bad magic %q", b[:len(magic)])
	}
	body, sum := b[:len(b)-trailer], b[len(b)-trailer:]
	if want := sha256.Sum256(body); !bytes.Equal(sum, want[:]) {
		return nil, fmt.Errorf("ckpt: checksum mismatch — file is truncated or corrupted")
	}
	hlen := int(binary.LittleEndian.Uint32(body[len(magic):]))
	rest := body[len(magic)+4:]
	if hlen < 2 || hlen > len(rest) {
		return nil, fmt.Errorf("ckpt: header length %d out of range", hlen)
	}
	var h header
	if err := json.Unmarshal(rest[:hlen], &h); err != nil {
		return nil, fmt.Errorf("ckpt: decoding header: %w", err)
	}
	if h.Version < 1 || h.Version > version {
		return nil, fmt.Errorf("ckpt: unsupported version %d (this build reads 1..%d)", h.Version, version)
	}
	if h.NLayers < 0 || h.NLayers > maxLayers {
		return nil, fmt.Errorf("ckpt: layer count %d outside [0, %d]", h.NLayers, maxLayers)
	}
	// A matching trailer proves the bytes intact, not the header honest:
	// anyone can re-seal a file. So every count is held to the values the
	// payload holds before it is summed, multiplied or allocated.
	payload := rest[hlen:]
	avail := len(payload) / 8
	if h.NLosses < 0 || h.NLosses > avail {
		return nil, fmt.Errorf("ckpt: %d losses outside the %d-value payload", h.NLosses, avail)
	}
	n := h.NLosses
	for _, e := range h.Dir {
		vol := 1
		for _, d := range e.Shape {
			if d < 1 {
				return nil, fmt.Errorf("ckpt: layer %d %s has invalid shape %v", e.Layer, e.Field, e.Shape)
			}
			if vol > (avail-n)/d {
				return nil, fmt.Errorf("ckpt: layer %d %s shape %v outgrows the %d-value payload", e.Layer, e.Field, e.Shape, avail)
			}
			vol *= d
		}
		n += vol
	}
	if len(payload) != 8*n {
		return nil, fmt.Errorf("ckpt: payload is %d bytes, directory declares %d", len(payload), 8*n)
	}

	s := &State{
		Model: h.Model, Plan: h.Plan, Iter: h.Iter, Seed: h.Seed,
		LR: h.LR, Momentum: h.Momentum, Cursor: h.Cursor,
		Streams: h.Streams,
		Params:  make([]nn.Params, h.NLayers),
	}
	s.Losses, payload = readFloats(payload, h.NLosses)
	for _, e := range h.Dir {
		var layers []nn.Params
		switch e.Kind {
		case "param":
			layers = s.Params
		case "vel":
			if s.Vel == nil {
				s.Vel = make([]nn.Params, h.NLayers)
			}
			layers = s.Vel
		default:
			return nil, fmt.Errorf("ckpt: unknown tensor kind %q", e.Kind)
		}
		if e.Layer < 0 || e.Layer >= h.NLayers {
			return nil, fmt.Errorf("ckpt: directory layer %d outside [0,%d)", e.Layer, h.NLayers)
		}
		slot := fieldOf(&layers[e.Layer], e.Field)
		if slot == nil {
			return nil, fmt.Errorf("ckpt: unknown tensor field %q", e.Field)
		}
		var vals []float64
		vals, payload = readFloats(payload, tensor.Volume(e.Shape))
		*slot = tensor.FromSlice(vals, e.Shape...)
	}
	return s, nil
}

func readFloats(b []byte, n int) ([]float64, []byte) {
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out, b[8*n:]
}

// FileName is the canonical checkpoint file name for an iteration.
func FileName(iter int) string { return fmt.Sprintf("ckpt-%06d.pdl", iter) }

// Save writes s atomically into dir as ckpt-<iter>.pdl: the encoding
// lands in a temp file first and renames into place, so a crash
// mid-write leaves the previous checkpoint intact and readers never
// observe a torn file.
func Save(dir string, s *State) (string, error) {
	enc, err := s.Encode()
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	tmp, err := os.CreateTemp(dir, ".tmp-ckpt-*")
	if err != nil {
		return "", err
	}
	if _, err := tmp.Write(enc); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return "", err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return "", err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return "", err
	}
	path := filepath.Join(dir, FileName(s.Iter))
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return "", err
	}
	return path, nil
}

// Load reads and decodes one checkpoint file; any integrity violation
// is an error, never a partial state.
func Load(path string) (*State, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := Decode(b)
	if err != nil {
		return nil, fmt.Errorf("ckpt: %s: %w", path, err)
	}
	return s, nil
}

// CorruptFile flips one bit of the byte at offset off (reduced modulo
// the file size) — the checkpoint-corruption fault of the chaos
// harness. The SHA-256 trailer guarantees the damaged file fails Load
// loudly, and LatestValid falls back to the previous snapshot, so an
// injected corruption costs recovery PROGRESS (an older resume point),
// never correctness.
func CorruptFile(path string, off int64) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if len(b) == 0 {
		return fmt.Errorf("ckpt: cannot corrupt empty file %s", path)
	}
	if off < 0 {
		off = -off
	}
	b[off%int64(len(b))] ^= 0x40
	return os.WriteFile(path, b, 0o644)
}

// Latest returns the path of the highest-iteration checkpoint in dir
// (by the canonical file-name ordering; temp files are invisible).
func Latest(dir string) (string, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "ckpt-*.pdl"))
	if err != nil {
		return "", err
	}
	if len(paths) == 0 {
		return "", fmt.Errorf("ckpt: no checkpoint files in %s", dir)
	}
	sort.Strings(paths) // zero-padded iters: lexical order IS numeric order
	return paths[len(paths)-1], nil
}

// LatestValid loads the newest checkpoint in dir that passes integrity
// verification, skipping torn, truncated, or corrupted files — the
// crash-recovery read path. Because Save is atomic (temp + rename), a
// writer killed mid-write leaves only an invisible temp file; but a
// corrupted or non-atomically produced newest file must never mask the
// previous durable snapshot, so the scan falls back file by file until
// a checksum verifies. It errors only when NO valid checkpoint exists.
func LatestValid(dir string) (*State, string, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "ckpt-*.pdl"))
	if err != nil {
		return nil, "", err
	}
	if len(paths) == 0 {
		return nil, "", fmt.Errorf("ckpt: no checkpoint files in %s", dir)
	}
	sort.Strings(paths)
	var lastErr error
	for i := len(paths) - 1; i >= 0; i-- {
		s, err := Load(paths[i])
		if err == nil {
			return s, paths[i], nil
		}
		lastErr = err
	}
	return nil, "", fmt.Errorf("ckpt: no valid checkpoint in %s: %w", dir, lastErr)
}
