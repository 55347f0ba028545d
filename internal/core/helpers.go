package core

import (
	"fmt"

	"repro/internal/bits"
)

// ChunkRounds returns the number of rounds needed to move a payload of
// maxBits bits over links of bandwidth b, i.e. ceil(maxBits/b), and at
// least 1 (an empty payload still occupies the protocol slot of one round
// so that all nodes stay in lock step).
func ChunkRounds(maxBits, b int) int {
	if maxBits <= 0 {
		return 1
	}
	return (maxBits + b - 1) / b
}

// ExchangeBroadcasts implements the paper's standard "split the message
// into chunks of b bits each" pattern (Theorem 7): every node broadcasts
// its payload over exactly `rounds` rounds and receives every other node's
// payload, returned indexed by sender (the node's own payload is included
// at its own index). Payloads may have different lengths but each must fit
// in rounds*b bits.
func ExchangeBroadcasts(p *Proc, payload *bits.Buffer, rounds int) ([]*bits.Buffer, error) {
	b := p.Bandwidth()
	if payload.Len() > rounds*b {
		return nil, fmt.Errorf("core: payload of %d bits exceeds %d rounds * %d bits",
			payload.Len(), rounds, b)
	}
	chunks := payload.Chunks(b)
	acc := make([]*bits.Buffer, p.N())
	for i := range acc {
		acc[i] = bits.New(0)
	}
	for r := 0; r < rounds; r++ {
		if r < len(chunks) {
			if err := p.Broadcast(chunks[r]); err != nil {
				return nil, err
			}
		}
		in := p.Next()
		for src, msg := range in {
			if msg != nil {
				acc[src].Append(msg)
			}
		}
	}
	acc[p.ID()] = payload.Clone()
	return acc, nil
}

// SendChunked streams a long payload to dst over exactly `rounds` rounds
// (unicast models). Counterpart receivers use RecvChunked with the same
// round count. Other traffic must not use the same link during these rounds.
func SendChunked(p *Proc, dst int, payload *bits.Buffer, rounds int) error {
	b := p.Bandwidth()
	if payload.Len() > rounds*b {
		return fmt.Errorf("core: payload of %d bits exceeds %d rounds * %d bits",
			payload.Len(), rounds, b)
	}
	chunks := payload.Chunks(b)
	for r := 0; r < rounds; r++ {
		if r < len(chunks) {
			if err := p.Send(dst, chunks[r]); err != nil {
				return err
			}
		}
		p.Next()
	}
	return nil
}

// RecvChunked collects a payload streamed by src over exactly `rounds`
// rounds.
func RecvChunked(p *Proc, src int, rounds int) (*bits.Buffer, error) {
	acc := bits.New(0)
	for r := 0; r < rounds; r++ {
		in := p.Next()
		if msg := in[src]; msg != nil {
			acc.Append(msg)
		}
	}
	return acc, nil
}

// EncodeAdjacencyRow writes a node's adjacency bitset (n bits) into a
// buffer — the trivial "broadcast your entire neighborhood" encoding used
// by the paper's O(n log n / b) baseline (there stated as adjacency lists;
// we use the n-bit row, which is never larger for the dense instances the
// baseline is invoked on).
func EncodeAdjacencyRow(row []uint64, n int) *bits.Buffer {
	out := bits.New(n)
	for i := 0; i < n; i++ {
		out.WriteBit((row[i/64] >> uint(i%64)) & 1)
	}
	return out
}

// DecodeAdjacencyRow parses an n-bit adjacency row.
func DecodeAdjacencyRow(buf *bits.Buffer, n int) ([]uint64, error) {
	if buf.Len() < n {
		return nil, fmt.Errorf("core: adjacency row has %d bits, want %d", buf.Len(), n)
	}
	r := bits.NewReader(buf)
	row := make([]uint64, (n+63)/64)
	for i := 0; i < n; i++ {
		v, err := r.ReadBit()
		if err != nil {
			return nil, err
		}
		if v != 0 {
			row[i/64] |= 1 << uint(i%64)
		}
	}
	return row, nil
}
