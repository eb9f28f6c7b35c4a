// Inventory: the paper's running example (Figures 1-13), executed through
// the table layer with each of the paper's three update batches applied as
// one key-level batch — watch the table image and the PDT evolve.
package main

import (
	"fmt"
	"log"

	"pdtstore/internal/table"
	"pdtstore/internal/types"
	"pdtstore/internal/vector"
)

func row(store, prod string, isNew bool, qty int64) types.Row {
	return types.Row{types.Str(store), types.Str(prod), types.BoolVal(isNew), types.Int(qty)}
}

func main() {
	schema := types.MustSchema([]types.Column{
		{Name: "store", Kind: types.String},
		{Name: "prod", Kind: types.String},
		{Name: "new", Kind: types.Bool},
		{Name: "qty", Kind: types.Int64},
	}, []int{0, 1})

	// Figure 1: TABLE0.
	tbl, err := table.Load(schema, []types.Row{
		row("London", "chair", false, 30),
		row("London", "stool", false, 10),
		row("London", "table", false, 20),
		row("Paris", "rug", false, 1),
		row("Paris", "stool", false, 5),
	}, table.Options{Mode: table.ModePDT})
	if err != nil {
		log.Fatal(err)
	}
	print := func(label string) {
		fmt.Printf("\n=== %s ===\n", label)
		cols := []int{0, 1, 2, 3}
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
		fmt.Println("rid | store  | prod  | new   | qty")
		for i := 0; i < out.Len(); i++ {
			fmt.Printf("%3d | %-6s | %-5s | %-5v | %3d\n", out.Rids[i],
				out.Vecs[0].S[i], out.Vecs[1].S[i], out.Vecs[2].Get(i).Bool(), out.Vecs[3].I[i])
		}
		fmt.Printf("\nPDT state: %s\n", tbl.PDT())
	}
	apply := func(ops ...table.Op) {
		n, err := tbl.ApplyBatch(ops)
		if err != nil {
			log.Fatal(err)
		}
		if n != len(ops) {
			log.Fatalf("%d of %d updates found their key", n, len(ops))
		}
	}
	insert := func(r types.Row) table.Op { return table.Op{Kind: table.OpInsert, Row: r} }
	key := func(store, prod string) types.Row {
		return types.Row{types.Str(store), types.Str(prod)}
	}

	print("TABLE0 (Figure 1)")

	// BATCH1 (Figure 2): INSERT INTO inventory VALUES (...)
	apply(insert(row("Berlin", "table", true, 10)),
		insert(row("Berlin", "cloth", true, 5)),
		insert(row("Berlin", "chair", true, 20)))
	print("TABLE1 after BATCH1 (Figure 5); PDT1 = Figure 3")

	// BATCH2 (Figure 6): UPDATEs and DELETEs by key.
	apply(table.Op{Kind: table.OpUpdate, Key: key("Berlin", "cloth"), Col: 3, Val: types.Int(1)},
		table.Op{Kind: table.OpUpdate, Key: key("London", "stool"), Col: 3, Val: types.Int(9)},
		table.Op{Kind: table.OpDelete, Key: key("Berlin", "table")},
		table.Op{Kind: table.OpDelete, Key: key("Paris", "rug")})
	print("TABLE2 after BATCH2 (Figure 9); PDT2 = Figure 7")

	// BATCH3 (Figure 10): more inserts, one of them between a ghost and its
	// predecessor — note (Paris,rack) receives the ghost-respecting SID 3.
	apply(insert(row("Paris", "rack", true, 4)),
		insert(row("London", "rack", true, 4)),
		insert(row("Berlin", "rack", true, 4)))
	print("TABLE3 after BATCH3 (Figure 13); PDT3 = Figure 11")

	// Range query from §2.1: SELECT qty FROM inventory
	// WHERE store='Paris' AND prod<'rug' — served via the sparse index,
	// which stays valid thanks to ghost-respecting SIDs.
	src, err := tbl.Scan([]int{0, 1, 3},
		types.Row{types.Str("Paris")}, types.Row{types.Str("Paris"), types.Str("rug")})
	if err != nil {
		log.Fatal(err)
	}
	out := vector.NewBatch(tbl.Kinds([]int{0, 1, 3}), 16)
	for {
		n, err := src.Next(out, 16)
		if err != nil {
			log.Fatal(err)
		}
		if n == 0 {
			break
		}
	}
	fmt.Println("\nrange query store='Paris' AND prod<'rug':")
	for i := 0; i < out.Len(); i++ {
		if out.Vecs[0].S[i] == "Paris" && out.Vecs[1].S[i] < "rug" {
			fmt.Printf("  qty=%d (%s,%s)\n", out.Vecs[2].I[i], out.Vecs[0].S[i], out.Vecs[1].S[i])
		}
	}
}
