package main

import (
	"bytes"
	"strconv"
)

// digest reduces an answer to its size and an order-independent hash of its
// canonical encoding: the sum of a mixed 64-bit hash of every result line.
// Summing makes the digest independent of delivery order, so a serial run, a
// work-stealing run, a sharded run and a component-batched run of the same
// question must produce the same digest without sorting their output.
type digest struct {
	Count int64  `json:"count"`
	Sum   uint64 `json:"sum"`
}

func (d *digest) add(line []byte) {
	d.Count++
	d.Sum += mix(fnv64(line))
}

func fnv64(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// mix is the splitmix64 finalizer; it spreads FNV's weak low bits so that
// sums of line hashes do not cancel.
func mix(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	return h ^ (h >> 31)
}

// outputDigest digests output written in the CLI's line format. With
// skipProb, each line's leading "probability<TAB>" field is left out, so a
// clique answer can be compared with a reference that only knows vertex
// sets.
func outputDigest(out []byte, skipProb bool) digest {
	var d digest
	for len(out) > 0 {
		i := bytes.IndexByte(out, '\n')
		if i < 0 {
			i = len(out)
		}
		line := out[:i]
		if skipProb {
			if t := bytes.IndexByte(line, '\t'); t >= 0 {
				line = line[t+1:]
			}
		}
		d.add(line)
		out = out[min(i+1, len(out)):]
	}
	return d
}

// setDigest digests vertex sets (each ascending) in the encoding a clique
// line carries after its probability.
func setDigest(sets [][]int) digest {
	var d digest
	var buf []byte
	for _, s := range sets {
		buf = buf[:0]
		for i, v := range s {
			if i > 0 {
				buf = append(buf, ' ')
			}
			buf = strconv.AppendInt(buf, int64(v), 10)
		}
		d.add(buf)
	}
	return d
}
