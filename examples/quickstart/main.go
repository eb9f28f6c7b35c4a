// Quickstart: create an ordered table with PDT update handling, run updates,
// and scan the merged image — the five-minute tour of the public API.
package main

import (
	"fmt"
	"log"

	"pdtstore/internal/table"
	"pdtstore/internal/types"
	"pdtstore/internal/vector"
)

func main() {
	// An ordered table: products sorted (and keyed) by SKU.
	schema := types.MustSchema([]types.Column{
		{Name: "sku", Kind: types.Int64},
		{Name: "name", Kind: types.String},
		{Name: "price", Kind: types.Float64},
	}, []int{0})

	// Bulk-load the stable image (rows must arrive in sort-key order).
	var rows []types.Row
	for i := int64(1); i <= 8; i++ {
		rows = append(rows, types.Row{
			types.Int(i * 100),
			types.Str(fmt.Sprintf("widget-%d", i)),
			types.Float(float64(i) * 9.99),
		})
	}
	tbl, err := table.Load(schema, rows, table.Options{Mode: table.ModePDT})
	if err != nil {
		log.Fatal(err)
	}

	// Updates arrive as one key-level batch and buffer in the PDT; the
	// stable image is never touched.
	if _, err := tbl.ApplyBatch([]table.Op{
		{Kind: table.OpInsert, Row: types.Row{types.Int(250), types.Str("gadget"), types.Float(4.99)}},
		{Kind: table.OpUpdate, Key: types.Row{types.Int(300)}, Col: 2, Val: types.Float(1.50)},
		{Kind: table.OpDelete, Key: types.Row{types.Int(700)}},
	}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("visible rows: %d, PDT entries: %d, delta memory: %d bytes\n\n",
		tbl.NRows(), tbl.PDT().Count(), tbl.DeltaMemBytes())

	// Scans merge the updates in by position — no key comparisons, and only
	// the projected columns are read from "disk".
	cols := []int{0, 1, 2}
	src, err := tbl.Scan(cols, nil, nil)
	if err != nil {
		log.Fatal(err)
	}
	out := vector.NewBatch(tbl.Kinds(cols), 16)
	for {
		n, err := src.Next(out, 16)
		if err != nil {
			log.Fatal(err)
		}
		if n == 0 {
			break
		}
	}
	fmt.Println("rid | sku  | name      | price")
	for i := 0; i < out.Len(); i++ {
		fmt.Printf("%3d | %-4d | %-9s | %6.2f\n",
			out.Rids[i], out.Vecs[0].I[i], out.Vecs[1].S[i], out.Vecs[2].F[i])
	}

	// Checkpoint: fold the deltas into a fresh stable image.
	if err := tbl.Checkpoint(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nafter checkpoint: stable rows=%d, PDT entries=%d\n",
		tbl.Store().NRows(), tbl.PDT().Count())
}
