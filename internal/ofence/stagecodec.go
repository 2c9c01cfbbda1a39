// Stage-artifact codecs: the bridge between the per-file stage caches and
// a durable/remote rescache.ArtifactStore. Only the preprocess stage has a
// codec — its artifact is a flat token stream plus diagnostics, which
// round-trips losslessly through bytes. The parse/cfg/extract artifacts
// hold live AST and CFG pointers and stay memory-only; recomputing them
// from a store-served token stream is cheap and keeps results
// byte-identical (the parser is deterministic over the tokens).
package ofence

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"

	"ofence/internal/cpp"
	"ofence/internal/ctoken"
	"ofence/internal/rescache"
)

// preBlob is the wire form of a preprocess-stage artifact. Errors travel as
// strings: every consumer downstream (parse-stage diagnostics, the result's
// parse_errors) only ever reads err.Error(), so the round trip is lossless
// where it matters. Macros are dropped — nothing after preprocessing
// reads them. Spans travel so a store-served token stream still shares
// header parses (their keys are content digests, equal in every process);
// a blob written before they existed decodes with none, which only costs
// the sharing.
type preBlob struct {
	Hash   string
	Tokens []ctoken.Token
	Errors []string
	Spans  []cpp.Span
}

func encodePreArtifact(v any) ([]byte, error) {
	pa, ok := v.(*preArtifact)
	if !ok {
		return nil, fmt.Errorf("stagecodec: unexpected preprocess value %T", v)
	}
	blob := preBlob{Hash: pa.hash, Tokens: pa.pre.Tokens, Spans: pa.pre.Spans}
	for _, err := range pa.pre.Errors {
		blob.Errors = append(blob.Errors, err.Error())
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&blob); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func decodePreArtifact(data []byte) (any, error) {
	var blob preBlob
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&blob); err != nil {
		return nil, err
	}
	if blob.Hash == "" {
		return nil, fmt.Errorf("stagecodec: preprocess blob missing hash")
	}
	pre := &cpp.Result{Tokens: blob.Tokens, Spans: blob.Spans}
	for _, msg := range blob.Errors {
		pre.Errors = append(pre.Errors, errors.New(msg))
	}
	return &preArtifact{pre: pre, hash: blob.Hash}, nil
}

// StageCodecs returns the codec registry for the per-file stage caches,
// suitable for rescache.(*Stages).AttachStore: stage name → codec. Stages
// absent from the map cannot be shared across processes.
func StageCodecs() map[string]rescache.Codec {
	return map[string]rescache.Codec{
		stagePreprocess: {Encode: encodePreArtifact, Decode: decodePreArtifact},
	}
}

// NewProjectWithStages returns an empty project whose per-file stage caches
// are the given family instead of a private one — the way a serving process
// shares one content-addressed artifact tier across every project it
// builds (and, through an attached ArtifactStore, across processes).
// A nil stages falls back to a private family.
func NewProjectWithStages(stages *rescache.Stages) *Project {
	p := NewProject()
	if stages != nil {
		p.stages = stages
	}
	return p
}
