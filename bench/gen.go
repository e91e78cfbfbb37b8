package main

import (
	"hash/crc32"
	"math/rand"

	"repro/internal/graph"
	"repro/internal/model"
)

// Every input is a function of the run's seed and a stream number, so the
// same seed gives the same models and the same call sequence per client.
func newRand(seed int64, stream int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + int64(stream)))
}

// newZipf draws ranks 0..n-1 with P(rank k) ∝ 1/(k+1)^s.
func newZipf(seed int64, stream, n int, s float64) *rand.Zipf {
	return rand.NewZipf(newRand(seed, stream), s, 1, uint64(n-1))
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// fingerprint is the checksum a model's weights are verified by. It is
// recorded when the model is stored and compared after every read, outside
// the timed span.
func fingerprint(ws model.WeightSet) uint32 {
	var h uint32
	for _, ts := range ws {
		for _, t := range ts {
			h = crc32.Update(h, castagnoli, t.Data)
		}
	}
	return h
}

// chunkBytes is the dedup layer's content-addressing granularity
// (dedup.DefaultChunkSize); a block-sparse perturbation rewrites whole
// chunks so that the untouched ones of a segment deduplicate.
const chunkBytes = 64 << 10

// paramVertices lists the vertices that carry tensors.
func paramVertices(f *model.Flat) []graph.VertexID {
	var vs []graph.VertexID
	for v := range f.Leaves {
		if len(f.Leaves[v].Specs) > 0 {
			vs = append(vs, graph.VertexID(v))
		}
	}
	return vs
}

// perturbSparse simulates one fine-tuning step: half the parameter layers
// change, and in each of those half the 64 KiB blocks of the first tensor
// change. Only the first half of a changed block is rewritten, which keeps
// the change inside one chunk of the stored segment despite the segment
// header's offset.
func perturbSparse(f *model.Flat, ws model.WeightSet, r *rand.Rand) {
	vs := paramVertices(f)
	r.Shuffle(len(vs), func(i, j int) { vs[i], vs[j] = vs[j], vs[i] })
	for _, v := range vs[:(len(vs)+1)/2] {
		data := ws[v][0].Data
		blocks := max(1, len(data)/chunkBytes)
		for _, b := range r.Perm(blocks)[:(blocks+1)/2] {
			lo := b * chunkBytes
			hi := min(lo+chunkBytes/2, len(data))
			x := byte(r.Intn(255) + 1)
			for i := lo; i < hi; i++ {
				data[i] ^= x
			}
		}
	}
}

// perturbDense rewrites half the parameter layers entirely: the other half
// stays frozen and is inherited from the ancestor.
func perturbDense(f *model.Flat, ws model.WeightSet, r *rand.Rand) {
	vs := paramVertices(f)
	r.Shuffle(len(vs), func(i, j int) { vs[i], vs[j] = vs[j], vs[i] })
	for _, v := range vs[:(len(vs)+1)/2] {
		ws.PerturbVertex(v, r.Uint64())
	}
}
