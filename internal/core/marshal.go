package core

import "encoding/json"

// Program serialization: a constructed broadcast program is a
// deployment artifact — cmd/bdiskgen computes it offline and prints it.
// The JSON form carries exactly the fields NewProgram needs to rebuild
// the occurrence index, re-running the checks of construction.

// programJSON is the serialized form of a Program.
type programJSON struct {
	Files     []FileInfo `json:"files"`
	Slots     []int      `json:"slots"`
	Bandwidth int        `json:"bandwidth"`
	Origin    string     `json:"origin"`
}

// MarshalJSON encodes the program.
func (p *Program) MarshalJSON() ([]byte, error) {
	return json.Marshal(programJSON{
		Files:     p.Files,
		Slots:     p.Slots,
		Bandwidth: p.Bandwidth,
		Origin:    p.Origin,
	})
}
