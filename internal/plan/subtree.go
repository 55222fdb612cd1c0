package plan

import (
	"crypto/sha256"
	"encoding/binary"

	"floorplan/internal/shape"
)

// Per-subtree content addressing for the optimizer's subtree result store.
//
// SubtreeDigests assigns every node of a restructured binary tree a
// Merkle-style SHA-256 digest of the optimization sub-problem it roots: a
// leaf digests its canonical shape list, a composite digests its kind plus
// both child digests. Two nodes receive the same digest exactly when the
// bottom-up shape-curve evaluation below them is the same computation —
// the property the subtree store relies on to splice stored curves across
// requests and across edits of one tree.
//
// The preimages are domain-separated from every other hashed encoding in
// the repository: they start with a tag byte ∈ {0xf0, 0xf1}, while
// AppendCanonical emits a Kind byte (small non-negative) or the 0xff nil
// sentinel first and the full-workload cache key preimage therefore starts
// with the root node's Kind byte. No subtree preimage is a prefix of
// another (every variable-length field is length-prefixed and digests are
// fixed-width), so concatenation ambiguity cannot alias two sub-problems.
//
// Deliberate exclusions, mirroring what evaluation depends on:
//   - Leaf module NAMES are excluded: two leaves whose canonical shape
//     lists are identical byte-for-byte are the same sub-problem, whatever
//     the modules are called. Traceback reads the module name from the
//     tree, never from the evaluated curve, so sharing is safe.
//   - BinClose's Mirror flag is excluded: shape sets are mirror-invariant
//     (evaluation ignores the flag; only placement traceback reflects).
//
// The ctx argument is mixed into every node's preimage and must encode
// everything outside the tree that changes evaluation results — the
// selection policy (see optimizer.substoreContext).

// Digest is the SHA-256 content address of one subtree's sub-problem.
type Digest [32]byte

// Subtree preimage domain tags. These values are reserved: they must not
// collide with any first byte AppendCanonical can emit (node Kind bytes,
// or 0xff for nil), which keeps subtree digests and full-workload cache
// keys in disjoint namespaces even before hashing.
const (
	subtreeLeafTag      = 0xf0
	subtreeCompositeTag = 0xf1
)

// SubtreeDigests computes the digest of every subtree of root, indexed by
// preorder ID (root.HasPreorderIDs must hold; Restructure guarantees it).
// lib supplies each leaf's canonical shape list — the caller must have
// canonicalized the library first, or equal sub-problems with shuffled
// lists will digest apart.
func SubtreeDigests(root *BinNode, ctx []byte, lib Library) []Digest {
	out := make([]Digest, root.Count())
	var buf []byte
	var walk func(b *BinNode) Digest
	walk = func(b *BinNode) Digest {
		if b.Kind == BinLeaf {
			buf = appendLeafPreimage(buf[:0], ctx, lib[b.Module])
		} else {
			// Children are digested before buf is touched, so the
			// shared scratch is safe to reuse across levels.
			l := walk(b.Left)
			r := walk(b.Right)
			buf = appendCompositePreimage(buf[:0], ctx, b.Kind, l, r)
		}
		d := Digest(sha256.Sum256(buf))
		out[b.ID] = d
		return d
	}
	walk(root)
	return out
}

// appendLeafPreimage appends the digest preimage of a leaf with the given
// canonical shape list.
func appendLeafPreimage(dst []byte, ctx []byte, impls []shape.RImpl) []byte {
	dst = append(dst, subtreeLeafTag)
	dst = binary.AppendUvarint(dst, uint64(len(ctx)))
	dst = append(dst, ctx...)
	dst = binary.AppendUvarint(dst, uint64(len(impls)))
	for _, im := range impls {
		dst = binary.AppendVarint(dst, im.W)
		dst = binary.AppendVarint(dst, im.H)
	}
	return dst
}

// appendCompositePreimage appends the digest preimage of a composite node
// combining two already-digested children.
func appendCompositePreimage(dst []byte, ctx []byte, kind BinKind, l, r Digest) []byte {
	dst = append(dst, subtreeCompositeTag)
	dst = binary.AppendUvarint(dst, uint64(len(ctx)))
	dst = append(dst, ctx...)
	dst = append(dst, byte(kind))
	dst = append(dst, l[:]...)
	dst = append(dst, r[:]...)
	return dst
}
