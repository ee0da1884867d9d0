package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"

	"paradl/internal/data"
	"paradl/internal/dist"
	"paradl/internal/nn"
	"paradl/internal/tensor"
)

// Every input the program sees is generated here from -seed: tensors,
// labels, request parameters and Zipf draws. The program's own
// parameter-initialisation seed (dist.WithSeed) is never touched, so
// two seeds differ in inputs only.

// genBatches draws n batches of size bs for model m from rng.
func genBatches(m *nn.Model, rng *rand.Rand, n, bs int) []dist.Batch {
	out := make([]dist.Batch, n)
	shape := append([]int{bs, m.InputChannels}, m.InputDims...)
	for i := range out {
		labels := make([]int, bs)
		for j := range labels {
			labels[j] = rng.Intn(m.Classes)
		}
		out[i] = dist.Batch{X: tensor.New(shape...).RandN(rng, 1), Labels: labels}
	}
	return out
}

// digester folds generated inputs into the input_digest a run prints,
// so two runs can be shown to have measured the same inputs.
type digester struct{ h hash.Hash }

func newDigester() *digester { return &digester{h: sha256.New()} }

func (d *digester) batches(bs []dist.Batch) {
	var buf [8]byte
	for _, b := range bs {
		for _, v := range b.X.Data() {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			d.h.Write(buf[:])
		}
		for _, l := range b.Labels {
			binary.LittleEndian.PutUint64(buf[:], uint64(l))
			d.h.Write(buf[:])
		}
	}
}

func (d *digester) bytes(b []byte) { d.h.Write(b) }

func (d *digester) sum() string { return hex.EncodeToString(d.h.Sum(nil))[:16] }

// planReq is one generated planner request: endpoint path and body.
// Equal (path, body) pairs address the same cache key.
type planReq struct {
	path string
	body string
}

// splitmix is a tiny counter-based generator: request number tag of
// seed s is a pure function of (s, tag), so which client happens to
// send it cannot change what is sent.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitmix) intn(n int) int { return int(s.next() % uint64(n)) }

// The planner request space: the four paper models, widths 16…512 in
// steps of 4 (every strategy, hybrids included, projects at a multiple
// of 4, so no request fails), per-GPU batches, and a dataset size
// offset by tag so that distinct tags are distinct cache keys.
var (
	paperModels   = []string{"resnet50", "resnet152", "vgg16", "cosmoflow"}
	projectStrats = []string{"data", "spatial", "filter", "channel", "pipeline", "df", "ds", "dp"}
	perGPUBatches = []int{8, 16, 32, 64}
	sweepWidths   = []int{16, 32, 64, 128, 256, 512}
)

// Tag ranges keep the key sets of the phases disjoint.
const (
	hotTagBase    = 0
	coldTagBase   = 1_000_000
	churnTagBase  = 2_000_000
	ladderTagBase = 3_000_000
)

// Request kinds for genRequest; mixed draws 60% /advise, 30% /project,
// 10% /sweep.
const (
	kindMixed = iota
	kindAdvise
	kindProject
	kindSweep
)

// genRequest is request number tag of seed: a pure function of its
// arguments. A sweep asks for three consecutive widths.
func genRequest(seed int64, tag int, kind int) planReq {
	g := splitmix(uint64(seed)*0x9e3779b97f4a7c15 + uint64(tag))
	model := paperModels[g.intn(len(paperModels))]
	gpus := 16 + 4*g.intn(125)
	batch := perGPUBatches[g.intn(len(perGPUBatches))]
	ds, err := data.ForModel(model)
	if err != nil {
		panic(err) // paperModels lists only models with a paper dataset
	}
	d := ds.Samples + int64(tag)
	if kind == kindMixed {
		switch r := g.intn(10); {
		case r < 6:
			kind = kindAdvise
		case r < 9:
			kind = kindProject
		default:
			kind = kindSweep
		}
	}
	switch kind {
	case kindAdvise:
		return planReq{"/advise", fmt.Sprintf(`{"model":%q,"gpus":%d,"batch":%d,"d":%d}`, model, gpus, batch, d)}
	case kindProject:
		strat := projectStrats[g.intn(len(projectStrats))]
		return planReq{"/project", fmt.Sprintf(`{"model":%q,"gpus":%d,"batch":%d,"d":%d,"strategy":%q}`, model, gpus, batch, d, strat)}
	default:
		i := g.intn(len(sweepWidths) - 2)
		return planReq{"/sweep", fmt.Sprintf(`{"model":%q,"batch":%d,"d":%d,"ps":[%d,%d,%d]}`, model, batch, d, sweepWidths[i], sweepWidths[i+1], sweepWidths[i+2])}
	}
}
