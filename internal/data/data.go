// Package data provides synthetic datasets with the exact tensor
// geometry of the paper's Table 5 workloads (ImageNet 3×226², CosmoFlow
// 4×256³). Only sample geometry and count enter the performance model;
// sample VALUES matter only to the correctness harness, where
// procedurally generated tensors are equivalent to real images — the
// substitution recorded in the README's "Measured vs projected"
// section.
package data

import (
	"fmt"
	"math/rand"

	"paradl/internal/dist"
	"paradl/internal/nn"
	"paradl/internal/tensor"
)

// Dataset describes a training set: geometry plus a deterministic
// procedural sample generator.
type Dataset struct {
	Name     string
	Samples  int64
	Channels int
	Dims     []int
	Classes  int
	seed     int64
}

// SampleBytes returns the size of one sample at delta bytes per item.
func (d *Dataset) SampleBytes(delta float64) float64 {
	n := int64(d.Channels)
	for _, e := range d.Dims {
		n *= int64(e)
	}
	return float64(n) * delta
}

// Batch materializes a deterministic batch of the given size starting
// at a logical cursor (two equal cursors yield identical batches).
func (d *Dataset) Batch(cursor, size int) dist.Batch {
	rng := rand.New(rand.NewSource(d.seed + int64(cursor)*7919))
	shape := append([]int{size, d.Channels}, d.Dims...)
	x := tensor.New(shape...).RandN(rng, 1)
	labels := make([]int, size)
	for i := range labels {
		labels[i] = rng.Intn(d.Classes)
	}
	return dist.Batch{X: x, Labels: labels}
}

// Batches materializes n consecutive batches.
func (d *Dataset) Batches(n, size int) []dist.Batch {
	return d.BatchesFrom(0, n, size)
}

// BatchesFrom materializes n consecutive batches starting at a logical
// cursor — the resume path: a checkpoint taken after iteration k
// records cursor k, and BatchesFrom(k, n-k, size) regenerates exactly
// the batches the interrupted run never consumed.
func (d *Dataset) BatchesFrom(cursor, n, size int) []dist.Batch {
	out := make([]dist.Batch, n)
	for i := range out {
		out[i] = d.Batch(cursor+i, size)
	}
	return out
}

// ImageNet returns the synthetic stand-in for ILSVRC-2012 at the
// paper's 3×226² geometry (1.28M samples, 1000 classes).
func ImageNet() *Dataset {
	return &Dataset{
		Name:     "imagenet-synthetic",
		Samples:  1_281_167,
		Channels: 3,
		Dims:     []int{226, 226},
		Classes:  1000,
		seed:     1,
	}
}

// CosmoFlow returns the synthetic stand-in for the CosmoFlow dataset
// (1584 samples of 4×256³; the 4 regression targets are treated as
// classes for the synthetic loss).
func CosmoFlow() *Dataset {
	return &Dataset{
		Name:     "cosmoflow-synthetic",
		Samples:  1584,
		Channels: 4,
		Dims:     []int{256, 256, 256},
		Classes:  4,
		seed:     2,
	}
}

// Toy returns a small dataset matched to a toy model — the workload of
// the runnable examples and the correctness harness.
func Toy(m *nn.Model, samples int64) *Dataset {
	return &Dataset{
		Name:     "toy-" + m.Name,
		Samples:  samples,
		Channels: m.InputChannels,
		Dims:     append([]int(nil), m.InputDims...),
		Classes:  m.Classes,
		seed:     3,
	}
}

// ForModel returns the dataset a paper model trains on.
func ForModel(name string) (*Dataset, error) {
	switch name {
	case "resnet50", "resnet152", "vgg16":
		return ImageNet(), nil
	case "cosmoflow":
		return CosmoFlow(), nil
	default:
		return nil, fmt.Errorf("data: no dataset for model %q", name)
	}
}
