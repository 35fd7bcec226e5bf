// Package modelio persists trained F2PM models: a versioned JSON envelope
// tags the model kind so a predictor trained offline (cmd/f2pm, the
// pipeline) can be deployed next to a live monitor without retraining.
// All six paper methods round-trip; predictions after Load match the
// original model exactly.
//
// Since format version 2 the envelope also carries deployment metadata —
// the column names the model consumes (the Lasso-selected subset for
// reduced-family models) and the aggregation configuration the training
// used — so the serving side can rebuild the exact feature layout and
// projection without out-of-band knowledge. Version-1 envelopes (no
// metadata) still load.
//
// Format version 3 changes only how the payloads spell their bulk float
// arrays — the ones that grow with training rows, support vectors or tree
// nodes (svm support_x/train_x/train_y/beta/beta_full, lssvm
// train_x/train_y/alpha, m5p node planes): each is one base64 string of
// little-endian float64 bits, a matrix {"rows","cols","data"} (package
// packed), because parsing ≈50 000 decimal floats was most of a load and
// a load runs twice, serially, between a retrain and the fleet serving
// it (registry PUT validation, node refresh). The envelope is still one
// JSON object; the small arrays (standardizer mean/std, linear and lasso
// coefficients) and every scalar stay plain. Save writes version 3
// only. Load reads 1, 2 and 3 through the same decoder — each packed
// field accepts either spelling — and predictions from an old file are
// bitwise what they were. A reader from before version 3 refuses a
// version-3 file with its "unsupported format version" error, so
// upgrade readers (nodes, registry) before writers (the trainer).
package modelio

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/aggregate"
	"repro/internal/ml"
	"repro/internal/ml/lasso"
	"repro/internal/ml/linreg"
	"repro/internal/ml/lssvm"
	"repro/internal/ml/m5p"
	"repro/internal/ml/reptree"
	"repro/internal/ml/svm"
)

// FormatVersion is bumped when the envelope layout changes. Version 2
// added the optional deployment metadata block, version 3 packed the
// payloads' bulk float arrays.
const FormatVersion = 3

// Meta is the deployment metadata saved alongside a model.
type Meta struct {
	// Features names the dataset columns the model consumes, in model
	// input order. Empty means the full aggregated layout.
	Features []string `json:"features,omitempty"`
	// Aggregation, when non-nil, is the windowing configuration the
	// training pipeline used; a live aggregator built from it emits
	// rows in the layout Features indexes into.
	Aggregation *aggregate.Config `json:"aggregation,omitempty"`
}

// envelope wraps a serialized model with its kind tag.
type envelope struct {
	Format  string          `json:"format"`
	Version int             `json:"version"`
	Kind    string          `json:"kind"`
	Meta    *Meta           `json:"meta,omitempty"`
	Payload json.RawMessage `json:"payload"`
}

const formatName = "f2pm-model"

// model is what the envelope asks of a kind: it predicts, and it writes
// and reads its own payload.
type model interface {
	ml.Regressor
	json.Marshaler
	json.Unmarshaler
}

// kindOf maps a model to its envelope tag.
func kindOf(m ml.Regressor) (string, model, error) {
	switch m := m.(type) {
	case *linreg.Model:
		return "linear", m, nil
	case *lasso.Model:
		return "lasso", m, nil
	case *m5p.Model:
		return "m5p", m, nil
	case *reptree.Model:
		return "reptree", m, nil
	case *svm.Model:
		return "svm", m, nil
	case *lssvm.Model:
		return "lssvm", m, nil
	default:
		return "", nil, fmt.Errorf("modelio: unsupported model type %T", m)
	}
}

// Save writes a fitted model to w with no deployment metadata.
func Save(w io.Writer, m ml.Regressor) error { return SaveWithMeta(w, m, nil) }

// SaveWithMeta writes a fitted model plus its deployment metadata.
func SaveWithMeta(w io.Writer, m ml.Regressor, meta *Meta) error {
	kind, codec, err := kindOf(m)
	if err != nil {
		return err
	}
	// Called directly: json.Marshal(m) would scan the payload once more
	// to validate bytes the model's own json.Marshal just produced.
	payload, err := codec.MarshalJSON()
	if err != nil {
		return fmt.Errorf("modelio: serializing %s model: %w", kind, err)
	}
	env := envelope{Format: formatName, Version: FormatVersion, Kind: kind, Meta: meta, Payload: payload}
	enc := json.NewEncoder(w)
	return enc.Encode(&env)
}

// Load reads a model written by Save and returns a ready predictor.
func Load(r io.Reader) (ml.Regressor, error) {
	m, _, err := LoadWithMeta(r)
	return m, err
}

// LoadWithMeta reads a model and its deployment metadata from an
// envelope of any format version up to FormatVersion. Envelopes from
// format version 1 load with nil metadata.
func LoadWithMeta(r io.Reader) (ml.Regressor, *Meta, error) {
	var env envelope
	dec := json.NewDecoder(r)
	if err := dec.Decode(&env); err != nil {
		return nil, nil, fmt.Errorf("modelio: decoding envelope: %w", err)
	}
	if env.Format != formatName {
		return nil, nil, fmt.Errorf("modelio: not an f2pm model file (format %q)", env.Format)
	}
	if env.Version < 1 || env.Version > FormatVersion {
		return nil, nil, fmt.Errorf("modelio: unsupported format version %d (want 1..%d)", env.Version, FormatVersion)
	}
	var m model
	switch env.Kind {
	case "linear":
		m = linreg.New()
	case "lasso":
		lm, err := lasso.New(lasso.DefaultOptions(0))
		if err != nil {
			return nil, nil, err
		}
		m = lm
	case "m5p":
		mm, err := m5p.New(m5p.DefaultOptions())
		if err != nil {
			return nil, nil, err
		}
		m = mm
	case "reptree":
		rm, err := reptree.New(reptree.DefaultOptions())
		if err != nil {
			return nil, nil, err
		}
		m = rm
	case "svm":
		sm, err := svm.New(svm.DefaultOptions())
		if err != nil {
			return nil, nil, err
		}
		m = sm
	case "lssvm":
		lm, err := lssvm.New(lssvm.DefaultOptions())
		if err != nil {
			return nil, nil, err
		}
		m = lm
	default:
		return nil, nil, fmt.Errorf("modelio: unknown model kind %q", env.Kind)
	}
	// Called directly: the envelope decode has validated and delimited
	// the payload and the model's json.Unmarshal validates it again;
	// json.Unmarshal(env.Payload, m) would add two more scans of it.
	if err := m.UnmarshalJSON(env.Payload); err != nil {
		return nil, nil, fmt.Errorf("modelio: deserializing %s model: %w", env.Kind, err)
	}
	return m, env.Meta, nil
}
