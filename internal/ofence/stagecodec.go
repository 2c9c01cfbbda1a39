// Stage-artifact codecs: the bridge between the per-file stage caches and
// a durable/remote rescache.ArtifactStore. Only the preprocess stage has a
// codec — its artifact is a token stream plus diagnostics, which
// round-trips losslessly through bytes. The parse/cfg/extract artifacts
// hold live AST and CFG pointers and stay memory-only; recomputing them
// from a store-served token stream is cheap and keeps results
// byte-identical (the parser is deterministic over the tokens).
//
// The wire blob is flat: in memory a preprocess artifact references its
// header expansions in the process's memo (cpp.Span), but
// encodePreArtifact writes the whole token stream, with each span as a
// range of it, so a blob decodes in a process that has no such memo. The
// decoded artifact is compact again, its spans slicing the decoded stream.
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
// header parses (their keys are content digests, equal in every process).
type preBlob struct {
	Hash   string
	Tokens []ctoken.Token
	Errors []string
	Spans  []wireSpan
}

// wireSpan is a cpp.Span on the wire: Tokens[Start:End] of the flat blob.
type wireSpan struct {
	Start, End int
	Key        cpp.SpanKey
}

func encodePreArtifact(v any) ([]byte, error) {
	pa, ok := v.(*preArtifact)
	if !ok {
		return nil, fmt.Errorf("stagecodec: unexpected preprocess value %T", v)
	}
	blob := preBlob{Hash: pa.hash, Tokens: pa.pre.Flat()}
	shift := 0
	for _, s := range pa.pre.Spans {
		start := s.At + shift
		shift += len(s.Tokens)
		blob.Spans = append(blob.Spans, wireSpan{Start: start, End: start + len(s.Tokens), Key: s.Key})
	}
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
	pre := &cpp.Result{}
	from := 0
	for _, s := range blob.Spans {
		if s.Start < from || s.End <= s.Start || s.End > len(blob.Tokens) {
			return nil, fmt.Errorf("stagecodec: preprocess blob has bad span [%d,%d)", s.Start, s.End)
		}
		pre.Tokens = append(pre.Tokens, blob.Tokens[from:s.Start]...)
		pre.Spans = append(pre.Spans, cpp.Span{At: len(pre.Tokens), Key: s.Key, Tokens: blob.Tokens[s.Start:s.End]})
		from = s.End
	}
	if pre.Spans == nil {
		pre.Tokens = blob.Tokens
	} else {
		pre.Tokens = append(pre.Tokens, blob.Tokens[from:]...)
	}
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
